/* The compiled passes: kick-drift-kick steps of the field, the energy form behind every observer, the
 * Newton solve of the solitary amplitude system at one frequency (solve_point) behind the single solve, the
 * continuation in frequency and the manifold distance's frequency scan and search, the solitary profile's
 * sampler, and the CSV text of float64 rows.
 *
 * Each expression of the steps and the solve is the one it transcribes,
 * operation for operation and operand for operand, and the build fuses and
 * reassociates nothing (-ffp-contract=off, no -ffast-math), so the results
 * are bit for bit those of the code it transcribes.  The steps run on float64
 * views of the complex buffers and keep numpy's bits; the oscillator nodes'
 * forces and potentials are model._at_node's on numpy scalars.  The solve
 * keeps the bits of the damped Newton loop on Python floats that
 * solitary.solve_profile ran before it, and the branch and the scan those of
 * the loops of solve_profile calls that solitary.continue_branch and
 * simulator._frequency_scan ran.  The sampler keeps the bits of numpy's
 * complex arithmetic in solitary.profile_eval's loop, but takes libm's exp,
 * and the search those of simulator.dist_to_manifold's Python loop over its
 * scan and Brent's steps.
 *
 * The energy form sums in one fixed order of its own, written out below at
 * form_sums, with two-lane vectors of gcc's and clang's vector extensions (no
 * intrinsics, no -march), so its bits depend on neither the CPU nor a BLAS.
 *
 * The CSV text is Python's '%.17g' of each value, computed with integers
 * from a table of powers of ten, at kgp_format_rows.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* libm's pow, called through a pointer the compiler cannot see through: it
 * would turn pow(x, 2.0) into x * x, which rounds apart from numpy's and
 * Python's |z| ** 2 */
static double (*volatile libm_pow)(double, double) = pow;

/* k = ((p[+1] - c p) + p[-1]) scale at float j */
static inline void stencil(const double *restrict p, double *restrict k, ptrdiff_t j, double c, double scale)
{
    k[j] = ((p[j + 2] - p[j] * c) + p[j - 2]) * scale;
}

/* sum_d coef[d] s^(n - 1 - d) by Horner from 0.0, the coefficients highest degree first */
static inline double horner(const double *coef, int n, double s)
{
    double acc = 0.0;
    for (int d = 0; d < n; d++)
        acc = acc * s + coef[d];
    return acc;
}

/* k += F(p) force_scale at each site: F = -2 u'(|p|^2) p, u' by Horner from the highest degree, and the
 * two products numpy's complex ones by a real (f zr - 0 zi, f zi + 0 zr), as model._at_node has them */
static void node_forces(const double *restrict p, double *restrict k, ptrdiff_t nsites, const ptrdiff_t *sites,
                        const int *ncoef, const double *coef, double force_scale)
{
    for (ptrdiff_t i = 0; i < nsites; i++) {
        const ptrdiff_t j = 2 * sites[i];
        const double zr = p[j], zi = p[j + 1];
        const double u = horner(coef, ncoef[i], libm_pow(hypot(zr, zi), 2.0));
        coef += ncoef[i];
        const double f = -2.0 * u;
        const double fr = f * zr - 0.0 * zi, fi = f * zi + 0.0 * zr;
        k[j] = k[j] + (fr * force_scale - fi * 0.0);
        k[j + 1] = k[j + 1] + (fr * 0.0 + fi * force_scale);
    }
}

/* q += k, twice when the last step's second half kick is pending; p += q dt; at float j */
static inline void update(double *restrict p, double *restrict q, const double *restrict k, ptrdiff_t j,
                          double dt, const int twice)
{
    double v = q[j] + k[j];
    if (twice)
        v = v + k[j];
    q[j] = v;
    p[j] = p[j] + v * dt;
}

/* One step's sweep: the update at each float j and the stencil at j - 4, whose p values this sweep has
 * already updated and whose k it has already read */
static inline void sweep(double *restrict p, double *restrict q, double *restrict k, ptrdiff_t n,
                         double dt, double c, double scale, const int twice)
{
    for (ptrdiff_t j = 0; j < 6; j++)
        update(p, q, k, j, dt, twice);
    for (ptrdiff_t j = 6; j < n; j++) {
        update(p, q, k, j, dt, twice);
        stencil(p, k, j - 4, c, scale);
    }
    for (ptrdiff_t j = n - 4; j < n - 2; j++)
        stencil(p, k, j, c, scale);
}

/* One model, packed once and shared by the steps, the samples and the solves: n oscillators, and per
 * oscillator the count of the coefficients of its potential u(s), of u'(s) (at least 1) and of u''(s) (0 at
 * degree 1), each list one oscillator after another, highest degree first; the oscillators' positions; and
 * the mass */
struct kgp_model {
    ptrdiff_t n;
    const int *ncoef;
    const double *coef;
    const int *nslope;
    const double *slope;
    const int *ncurv;
    const double *curv;
    const double *positions;
    double mass;
};

/* The Newton limits of every solve: the iteration cap, the residual tolerance and the zero-branch bound */
struct kgp_limits {
    long max_iter;
    double tol, zero_tol;
};

/* run's arguments but the last two, fixed for a run: the buffers p (psi), q (pi) and k (the kick), n floats
 * each; the stencil's c and scale; the model and the node of each of its oscillators */
struct kgp_field {
    double *p, *q, *k;
    ptrdiff_t n;
    double dt, c, scale;
    const struct kgp_model *model;
    const ptrdiff_t *sites;
    double force_scale;
};

/* steps kick-drift-kick steps of p (psi) and q (pi), the kick k = dt/2 acceleration; n >= 6 (3 nodes).
 *
 * k holds p's kick when primed, and is computed first otherwise; its two end
 * nodes are 0 and stay so.  Each step after the first applies the last one's
 * second half kick with its own first in one sweep; the last step's second
 * is applied before the call returns, so k holds p's kick again.  Kept out of
 * line so that the buffers stay restrict parameters: inlined into kgp_run,
 * with the pointers read from the block, gcc 12 compiles a step 7 % slower (x86-64).
 */
static __attribute__((noinline)) void run(double *restrict p, double *restrict q, double *restrict k, ptrdiff_t n,
                                          double dt, double c, double scale, ptrdiff_t nsites, const ptrdiff_t *sites,
                                          const int *ncoef, const double *coef, double force_scale, int primed,
                                          ptrdiff_t steps)
{
    if (steps <= 0)
        return;
    if (!primed) {
        for (ptrdiff_t j = 2; j < n - 2; j++)
            stencil(p, k, j, c, scale);
        node_forces(p, k, nsites, sites, ncoef, coef, force_scale);
    }
    sweep(p, q, k, n, dt, c, scale, 0);
    node_forces(p, k, nsites, sites, ncoef, coef, force_scale);
    for (ptrdiff_t s = 1; s < steps; s++) {
        sweep(p, q, k, n, dt, c, scale, 1);
        node_forces(p, k, nsites, sites, ncoef, coef, force_scale);
    }
    for (ptrdiff_t j = 0; j < n; j++)
        q[j] = q[j] + k[j];
}

/* steps kick-drift-kick steps of the field f (run's) */
void kgp_run(const struct kgp_field *f, int primed, ptrdiff_t steps)
{
    run(f->p, f->q, f->k, f->n, f->dt, f->c, f->scale, f->model->n, f->sites, f->model->nslope, f->model->slope,
        f->force_scale, primed, steps);
}

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

/* One observer's fixed arguments: the state p (psi) and q (pi), n nodes; the form's m2 and dx; row k / every
 * of the series at step k, at time t0 + k dt; the model and the node of each of its oscillators; the seminorm
 * windows as (start, stop) node pairs; and the series of rows samples: its columns t, H, Q, the energy norm
 * and each window's seminorm one after another, then the traces, rows of a complex value per oscillator, p's
 * and then q's. */
struct kgp_observer {
    const double *p, *q;
    ptrdiff_t n;
    double m2, dx;
    ptrdiff_t every;
    double t0, dt;
    const struct kgp_model *model;
    const ptrdiff_t *sites;
    ptrdiff_t nwindows;
    const ptrdiff_t *windows;
    ptrdiff_t rows;
    double *series, *traces;
};

/* Sample o's state at step k into row k / every: t, H, Q, the energy norm, each window's seminorm and the
 * traces.  H is half the form plus the potentials, each model._at_node's (pow of hypot, Horner from 0.0),
 * summed left to right from 0.0; Q = -dx Im sum conj(psi) pi.  Returns the squared energy norm, finite
 * only if the whole state is. */
double kgp_sample(const struct kgp_observer *o, ptrdiff_t k)
{
    const struct kgp_model *m = o->model;
    const ptrdiff_t row = k / o->every, rows = o->rows;
    double *column = o->series + row, *trace_p = o->traces + 2 * row * m->n;
    double *trace_q = trace_p + 2 * rows * m->n;
    double re[SUMS], im[SUMS];
    form_sums(o->p, o->q, o->p, o->q, o->n, 0, 1, re, im);
    const double norm2 = form_value(re, o->m2, o->dx);
    double u = 0.0;
    const double *coef = m->coef;
    for (ptrdiff_t i = 0; i < m->n; i++) {
        const ptrdiff_t j = 2 * o->sites[i];
        u = u + horner(coef, m->ncoef[i], libm_pow(hypot(o->p[j], o->p[j + 1]), 2.0));
        coef += m->ncoef[i];
        memcpy(trace_p + 2 * i, o->p + j, 2 * sizeof(double));
        memcpy(trace_q + 2 * i, o->q + j, 2 * sizeof(double));
    }
    column[0] = o->t0 + (double)k * o->dt;
    column[rows] = 0.5 * norm2 + u;
    column[2 * rows] = -o->dx * im[PI];
    column[3 * rows] = sqrt(norm2);
    for (ptrdiff_t w = 0; w < o->nwindows; w++) {
        const ptrdiff_t start = o->windows[2 * w];
        column[(4 + w) * rows] = seminorm(o->p + 2 * start, o->q + 2 * start, o->windows[2 * w + 1] - start, o->m2,
                                          o->dx);
    }
    return norm2;
}

/* One state's metric: the state p (psi) and q (pi) on the n nodes of the outer window; the form's m2 and dx;
 * scratch dp and dq of n complex values each; and the windows of radius R = 1 ... r_max as (start, stop) node
 * pairs within the outer window */
struct kgp_metric {
    const double *p, *q;
    ptrdiff_t n;
    double m2, dx;
    double *dp, *dq;
    ptrdiff_t r_max;
    const ptrdiff_t *windows;
};

/* A candidate wave on the n nodes of a metric's outer window */
struct kgp_wave {
    const double *p, *q;
    ptrdiff_t n;
};

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

/* The metric distance from m's state u to the closest phase of the wave w, or to the zero wave if w is NULL.
 *
 * The phase is the unit e = conj(z) / |z| of the form z = <u, w> (1 where z
 * is 0), |z| hypot's; each entry of the difference is u - w e in the complex
 * product (wr er - wi ei, wr ei + wi er), and its metric is metric's.
 */
double kgp_fit_dist(const struct kgp_metric *m, const struct kgp_wave *w)
{
    if (!w)
        return metric(m, m->p, m->q);
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

/* residual evaluations made, by the solve and by kgp_residual alike */
long kgp_residuals;

/* The residual 2 kappa C_J - F_J(psi_J) at the amplitudes c (Re and Im interleaved per J), k2 = 2 kappa,
 * psi_J = sum_K coupling[J][K] C_K summed from 0.0, Re and Im apart, left to right; and per J the slopes
 * (fuu, fuv, fvv) of F = alpha(|psi|^2) psi in (Re psi, Im psi), alpha = -2 u' and d alpha / ds = -2 u''.
 * Overflow gives inf and nan silently. */
static void residual(const struct kgp_model *m, const double *coupling, double k2, const double *c,
                     double *res, double *slopes)
{
    const ptrdiff_t n = m->n;
    const double *slope = m->slope, *curv = m->curv;
    kgp_residuals++;
    for (ptrdiff_t j = 0; j < n; j++) {
        const double *row = coupling + j * n;
        double u = 0.0, v = 0.0;
        for (ptrdiff_t k = 0; k < n; k++) {
            u = u + row[k] * c[2 * k];
            v = v + row[k] * c[2 * k + 1];
        }
        const double s = u * u + v * v;
        const double a = -2.0 * horner(slope, m->nslope[j], s);
        const double da = -2.0 * horner(curv, m->ncurv[j], s);
        slope += m->nslope[j];
        curv += m->ncurv[j];
        res[2 * j] = k2 * c[2 * j] - a * u;
        res[2 * j + 1] = k2 * c[2 * j + 1] - a * v;
        slopes[3 * j] = a + 2.0 * u * u * da;
        slopes[3 * j + 1] = 2.0 * u * v * da;
        slopes[3 * j + 2] = a + 2.0 * v * v * da;
    }
}

/* The residual's Jacobian in the 2n real unknowns, row-major: -dF_J/d psi coupling[J][K] in block (J, K),
 * plus k2 on the diagonal */
static void jacobian(ptrdiff_t n, const double *coupling, double k2, const double *slopes, double *jac)
{
    const ptrdiff_t w = 2 * n;
    for (ptrdiff_t j = 0; j < n; j++) {
        const double fuu = slopes[3 * j], fuv = slopes[3 * j + 1], fvv = slopes[3 * j + 2];
        double *ru = jac + 2 * j * w, *rv = ru + w;
        for (ptrdiff_t k = 0; k < n; k++) {
            const double e = coupling[j * n + k];
            ru[2 * k] = -fuu * e;
            ru[2 * k + 1] = -fuv * e;
            rv[2 * k] = -fuv * e;
            rv[2 * k + 1] = -fvv * e;
        }
        ru[2 * j] = ru[2 * j] + k2;
        rv[2 * j + 1] = rv[2 * j + 1] + k2;
    }
}

/* max |x_i| as np.max(np.abs(x)) gives it: the first nan met, as fabs leaves it, else the largest modulus */
static double sup_norm(const double *x, ptrdiff_t len)
{
    double top = 0.0;
    for (ptrdiff_t i = 0; i < len; i++) {
        const double v = fabs(x[i]);
        if (!(v <= top)) { /* larger, or nan */
            if (v != v)
                return v;
            top = v;
        }
    }
    return top;
}

/* x with a x = b for the w x w row-major a, by Gaussian elimination with partial pivoting, the pivot the
 * first entry of largest modulus in its column; a and b are overwritten.  -1 at an exactly zero pivot,
 * where LAPACK's dgesv reports a singular matrix, else 0. */
static int solve_linear(ptrdiff_t w, double *a, double *b, double *x)
{
    for (ptrdiff_t k = 0; k < w; k++) {
        ptrdiff_t p = k;
        double top = fabs(a[k * w + k]);
        for (ptrdiff_t i = k + 1; i < w; i++) {
            const double v = fabs(a[i * w + k]);
            if (v > top) {
                p = i;
                top = v;
            }
        }
        if (top == 0.0)
            return -1;
        if (p != k) {
            for (ptrdiff_t j = 0; j < w; j++) {
                const double t = a[k * w + j];
                a[k * w + j] = a[p * w + j];
                a[p * w + j] = t;
            }
            const double t = b[k];
            b[k] = b[p];
            b[p] = t;
        }
        const double *pivot_row = a + k * w;
        const double pivot = pivot_row[k], bk = b[k];
        for (ptrdiff_t i = k + 1; i < w; i++) {
            double *row = a + i * w;
            const double f = row[k] / pivot;
            for (ptrdiff_t j = k + 1; j < w; j++)
                row[j] = row[j] - f * pivot_row[j];
            b[i] = b[i] - f * bk;
        }
    }
    for (ptrdiff_t k = w - 1; k >= 0; k--) {
        const double *row = a + k * w;
        double acc = b[k];
        for (ptrdiff_t j = k + 1; j < w; j++)
            acc = acc - row[j] * x[j];
        x[k] = acc / row[k];
    }
    return 0;
}

/* Rotate the common phase so the first nonzero amplitude c is real >= 0: each amplitude times
 * (Re c / |c|, -Im c / |c|) in CPython's complex product (ar br - ai bi, ar bi + ai br), and c itself |c|.
 * |c| is hypot's, as Python's abs has it, and inf where it overflows. */
static void gauge_rotate(ptrdiff_t n, double *c)
{
    for (ptrdiff_t idx = 0; idx < n; idx++) {
        const double r = hypot(c[2 * idx], c[2 * idx + 1]);
        if (r > 0.0) {
            const double fr = c[2 * idx] / r, fi = -c[2 * idx + 1] / r;
            for (ptrdiff_t k = 0; k < n; k++) {
                const double ar = c[2 * k], ai = c[2 * k + 1];
                c[2 * k] = ar * fr - ai * fi;
                c[2 * k + 1] = ar * fi + ai * fr;
            }
            c[2 * idx] = r;
            c[2 * idx + 1] = 0.0;
            return;
        }
    }
}

/* sup_norm of res with its second entry, Im of equation 1, replaced by the gauge Im C_1; g is scratch */
static double gauged_norm(ptrdiff_t w, const double *res, const double *c, double *g)
{
    memcpy(g, res, w * sizeof(double));
    g[1] = c[1];
    return sup_norm(g, w);
}

enum { KGP_SOLVED, KGP_ZERO, KGP_FAILED, KGP_OUT_OF_BAND, KGP_NOT_FINITE, KGP_NO_MEMORY = -1, KGP_UNSOLVED = -2 };

/* the doubles of newton's work for n oscillators */
static size_t newton_work(ptrdiff_t n)
{
    return (size_t)(4 * n * n + 20 * n);
}

/* The damped Newton solve of model m's amplitude system from the finite amplitudes c (Re and Im
 * interleaved), k2 = 2 kappa > 0 and coupling the n x n rows exp(-kappa |X_J - X_K|), within the limits l:
 * the iteration cap max_iter, the residual tolerance tol and the zero-branch bound zero_tol.
 *
 * The phase gauge Im C_1 = 0 replaces residual equation 1 and Jacobian row
 * 1; on residual increase the step is halved up to 8 times.  Returns
 * KGP_SOLVED with the solved amplitudes in c and their residual's sup-norm in
 * *norm_out; KGP_ZERO when every |C| <= zero_tol; KGP_FAILED with the
 * residual's sup-norm in *norm_out after max_iter iterations, as soon as an
 * iterate's residual is not finite, at an exactly zero pivot, or when the
 * final residual exceeds tol.  work holds newton_work(n) doubles.
 */
static int newton(const struct kgp_model *m, const struct kgp_limits *l, const double *coupling, double k2, double *c,
                  double *norm_out, double *work)
{
    const ptrdiff_t n = m->n, w = 2 * n;
    double *jac = work, *cur = jac + w * w, *res = cur + w, *c_try = res + w, *res_try = c_try + w;
    double *g = res_try + w, *b = g + w, *delta = b + w, *slopes = delta + w, *slopes_try = slopes + 3 * n;
    double norm = 0.0;
    int status = KGP_FAILED;
    long it;

    memcpy(cur, c, w * sizeof(double));
    gauge_rotate(n, cur);
    residual(m, coupling, k2, cur, res, slopes);
    for (it = 0; it < l->max_iter; it++) {
        norm = sup_norm(res, w);
        if (norm <= l->tol)
            break;
        if (!isfinite(norm)) /* an overflowed iterate never recovers */
            goto done;
        jacobian(n, coupling, k2, slopes, jac);
        for (ptrdiff_t j = 0; j < w; j++) /* Im C_1 = 0 in place of Jacobian row 1 */
            jac[w + j] = 0.0;
        jac[w + 1] = 1.0;
        const double norm_old = gauged_norm(w, res, cur, g);
        for (ptrdiff_t j = 0; j < w; j++)
            b[j] = -g[j];
        if (solve_linear(w, jac, b, delta))
            goto done;
        double scale = 1.0;
        for (int t = 0; t < 8; t++) {
            for (ptrdiff_t j = 0; j < w; j++)
                c_try[j] = cur[j] + scale * delta[j];
            residual(m, coupling, k2, c_try, res_try, slopes_try);
            if (gauged_norm(w, res_try, c_try, g) < norm_old)
                break;
            scale = scale * 0.5;
        }
        double *swap = cur;
        cur = c_try, c_try = swap;
        swap = res, res = res_try, res_try = swap;
        swap = slopes, slopes = slopes_try, slopes_try = swap;
    }
    if (it == l->max_iter) {
        norm = sup_norm(res, w);
        goto done;
    }

    gauge_rotate(n, cur);
    residual(m, coupling, k2, cur, res, slopes);
    norm = sup_norm(res, w);
    if (norm > l->tol)
        goto done;
    memcpy(c, cur, w * sizeof(double));
    double top = hypot(cur[0], cur[1]); /* max of the moduli as Python's max takes it */
    for (ptrdiff_t k = 1; k < n; k++) {
        const double r = hypot(cur[2 * k], cur[2 * k + 1]);
        if (r > top)
            top = r;
    }
    status = top <= l->zero_tol ? KGP_ZERO : KGP_SOLVED;
done:
    *norm_out = norm;
    return status;
}

/* The row of the frequency omega up to its amplitudes, for model m: omega and kappa = sqrt(max(mass^2 -
 * omega^2, 0)), as solitary.kappa forms it.  Beyond the mass it is KGP_OUT_OF_BAND; at it the zero wave,
 * amplitudes and residual 0, is the row, unsolved, as solve_profile returns it, and KGP_SOLVED; else
 * KGP_UNSOLVED, with the coupling rows exp(-kappa |X_J - X_K|) of libm's exp, the function math.exp calls. */
static int frequency_row(const struct kgp_model *m, double omega, double *row, double *coupling)
{
    const ptrdiff_t n = m->n;
    const double mass = m->mass, *pos = m->positions;
    if (!(fabs(omega) <= mass))
        return KGP_OUT_OF_BAND;
    const double d = mass * mass - omega * omega, kap = sqrt(0.0 > d ? 0.0 : d); /* Python's max(d, 0.0) */
    row[0] = omega;
    row[1] = kap;
    if (fabs(omega) == mass) {
        memset(row + 2, 0, (2 * n + 1) * sizeof(double)); /* the amplitudes and the residual */
        return KGP_SOLVED;
    }
    for (ptrdiff_t j = 0; j < n; j++)
        for (ptrdiff_t k = 0; k < n; k++)
            coupling[j * n + k] = exp(-kap * fabs(pos[j] - pos[k]));
    return KGP_UNSOLVED;
}

/* The solitary wave of model m at the frequency omega within the limits l, as its row of 2n + 3 floats: omega,
 * kappa, Re and Im of each amplitude, and the residual's sup-norm.  frequency_row forms the row and the
 * coupling (n x n doubles); then newton (work newton_work(n) doubles) runs from each of the nstarts starts, 2n
 * floats each, in order until one is KGP_SOLVED, and the last start's status is the point's.  A start that is
 * not finite is KGP_NOT_FINITE, as solve_profile refuses it. */
static int solve_point(const struct kgp_model *m, const struct kgp_limits *l, double omega, const double *starts,
                       ptrdiff_t nstarts, double *row, double *coupling, double *work)
{
    const ptrdiff_t w = 2 * m->n;
    int status = frequency_row(m, omega, row, coupling);
    if (status != KGP_UNSOLVED)
        return status;
    for (ptrdiff_t i = 0; i < nstarts; i++, starts += w) {
        for (ptrdiff_t j = 0; j < w; j++) /* each component finite, as cmath.isfinite has it */
            if (!isfinite(starts[j]))
                return KGP_NOT_FINITE;
        memcpy(row + 2, starts, w * sizeof(double));
        status = newton(m, l, coupling, 2.0 * row[1], row + 2, row + w + 2, work);
        if (status == KGP_SOLVED)
            break;
    }
    return status;
}

/* solve_point from the one start c, on work of its own: KGP_NO_MEMORY where there is none */
int kgp_solve(const struct kgp_model *m, const struct kgp_limits *l, double omega, const double *c, double *row)
{
    const ptrdiff_t n = m->n;
    double *coupling = malloc((n * n + newton_work(n)) * sizeof(double));
    if (!coupling)
        return KGP_NO_MEMORY;
    const int status = solve_point(m, l, omega, c, 1, row, coupling, coupling + n * n);
    free(coupling);
    return status;
}

/* A branch of solitary waves, continued in frequency: its fixed arguments, and its state from one block of
 * frequencies to the next.  Frequency k is start + step k, step signed.  rows holds 2 + a block's rows of
 * 2n + 3 floats, one per solved point, solve_point's.  Rows 0 and 1 carry the last two solved points from
 * block to block (before any, row 1 holds the guess's amplitudes), and a block's solved points follow them.
 * solved counts the points solved so far; omega is the frequency where a block stopped short, residual the
 * failed solve's there. */
struct kgp_branch {
    const struct kgp_model *model;
    const struct kgp_limits *limits;
    double start, step;
    double *rows;
    ptrdiff_t solved;
    double omega, residual;
};

/* One point of the branch at frequency omega: its row, on the solved rows last and prev (prev NULL before
 * two are solved).  Once two points are solved the first start is the secant start last + r (last - prev),
 * r = (omega - omega_last) / (omega_last - omega_prev), with r as CPython 3.10-3.12 multiply a complex by a
 * float, (r dr - 0.0 di, r di + 0.0 dr); the second, or the only one, is last's amplitudes.  starts holds
 * the two starts, 4n doubles. */
static int branch_point(const struct kgp_branch *b, double omega, const double *last, const double *prev,
                        double *row, double *starts, double *coupling, double *work)
{
    const ptrdiff_t w = 2 * b->model->n;
    if (!prev)
        return solve_point(b->model, b->limits, omega, last + 2, 1, row, coupling, work);
    const double r = (omega - last[0]) / (last[0] - prev[0]);
    for (ptrdiff_t j = 2; j < w + 2; j += 2) {
        const double dr = last[j] - prev[j], di = last[j + 1] - prev[j + 1];
        starts[j - 2] = last[j] + (r * dr - 0.0 * di);
        starts[j - 1] = last[j + 1] + (r * di + 0.0 * dr);
    }
    memcpy(starts + w, last + 2, w * sizeof(double));
    return solve_point(b->model, b->limits, omega, starts, 2, row, coupling, work);
}

/* Continue branch b over its frequencies k ... k + count - 1, a row for each solved point from rows[2] on,
 * then carry the last two solved rows into rows 0 and 1.  Returns KGP_SOLVED when every frequency is solved;
 * else the status of the point where the block stopped, at b->omega, with its residual in b->residual: a
 * collapse, a failure, a frequency outside the band, a start that is not finite, or KGP_NO_MEMORY. */
int kgp_branch(struct kgp_branch *b, ptrdiff_t k, ptrdiff_t count)
{
    const ptrdiff_t n = b->model->n, cols = 2 * n + 3;
    double *starts = malloc((4 * n + n * n + newton_work(n)) * sizeof(double));
    if (!starts)
        return KGP_NO_MEMORY;
    double *coupling = starts + 4 * n, *carry = b->rows, *row = carry + 2 * cols;
    int status = KGP_SOLVED;
    for (ptrdiff_t i = 0; i < count; i++, row += cols) { /* the last two solved rows are the two before row */
        const double omega = b->start + b->step * (double)(k + i);
        status = branch_point(b, omega, row - cols, b->solved > 1 ? row - 2 * cols : NULL, row, starts, coupling,
                              coupling + n * n);
        if (status != KGP_SOLVED) {
            b->omega = omega;
            b->residual = row[2 * n + 2];
            break;
        }
        b->solved++;
    }
    free(starts);
    const ptrdiff_t written = (row - carry) / cols - 2;
    if (written >= 2)
        memcpy(carry, row - 2 * cols, 2 * cols * sizeof(double));
    else if (written == 1) {
        memcpy(carry, carry + cols, cols * sizeof(double));
        memcpy(carry + cols, carry + 2 * cols, cols * sizeof(double));
    }
    return status;
}

/* The profile phi = sum_J C_J exp(-kappa |x - X_J|) at the len points x, into the complex out: the n
 * amplitudes c (Re and Im interleaved) at the positions pos, each term numpy's complex product of C_J by
 * the float e = exp(-kappa |x - X_J|), (Re C e - Im C 0.0, Re C 0.0 + Im C e), added into phi from 0.0 one
 * oscillator after another, as solitary.profile_eval summed it with numpy; exp is libm's, whatever numpy's
 * SIMD dispatch would have picked. */
void kgp_profile(const double *x, ptrdiff_t len, ptrdiff_t n, const double *pos, double kappa, const double *c,
                 double *out)
{
    for (ptrdiff_t i = 0; i < len; i++) {
        double re = 0.0, im = 0.0;
        for (ptrdiff_t j = 0; j < n; j++) {
            const double e = exp(-kappa * fabs(x[i] - pos[j]));
            re = re + (c[2 * j] * e - c[2 * j + 1] * 0.0);
            im = im + (c[2 * j] * 0.0 + c[2 * j + 1] * e);
        }
        out[2 * i] = re;
        out[2 * i + 1] = im;
    }
}

/* A wave's state (p, q) = (psi, pi) at the len points x: psi = phi phase, 0 at the points first and last
 * (-1 for none), and pi = s psi, s = -1j omega as CPython 3.10-3.12 form it, (-0.0 omega - -1.0 0.0,
 * -0.0 0.0 + -1.0 omega); each product numpy's complex one, (ar br - ai bi, ar bi + ai br), with a the
 * left operand. */
void kgp_wave(const double *x, ptrdiff_t len, ptrdiff_t n, const double *pos, double kappa, const double *c,
              double omega, double phase_re, double phase_im, ptrdiff_t first, ptrdiff_t last, double *p, double *q)
{
    kgp_profile(x, len, n, pos, kappa, c, p);
    for (ptrdiff_t j = 0; j < 2 * len; j += 2) {
        const double re = p[j], im = p[j + 1];
        p[j] = re * phase_re - im * phase_im;
        p[j + 1] = re * phase_im + im * phase_re;
    }
    if (first >= 0)
        p[2 * first] = p[2 * first + 1] = 0.0;
    if (last >= 0)
        p[2 * last] = p[2 * last + 1] = 0.0;
    const double sr = -0.0 * omega - -1.0 * 0.0, si = -0.0 * 0.0 + -1.0 * omega;
    for (ptrdiff_t j = 0; j < 2 * len; j += 2) {
        q[j] = sr * p[j] - si * p[j + 1];
        q[j + 1] = sr * p[j + 1] + si * p[j];
    }
}

void kgp_free(void *p)
{
    free(p);
}

/* x = exp(x) at each of the len floats, libm's exp */
void kgp_exp(double *x, ptrdiff_t len)
{
    for (ptrdiff_t i = 0; i < len; i++)
        x[i] = exp(x[i]);
}

/* A frequency scan's solved waves, each sampled on a metric's outer window, fixed for every search of the wave
 * closest to a state: the model and the Newton limits; the window's nodes, their coordinates x and the
 * window's Dirichlet end nodes first and last (-1 where it holds none); the shared Newton starts, nstarts of
 * 2n floats one after another; the count solved frequencies' rows, laid out as the branch's, and their
 * samples, psi and then pi on the window's nodes; and Brent's golden-section fraction, relative resolution
 * sqrt_eps and tolerance, shrink times the bracket. */
struct kgp_scan {
    const struct kgp_model *model;
    const struct kgp_limits *limits;
    ptrdiff_t nodes;
    const double *x;
    ptrdiff_t first, last, nstarts;
    const double *starts;
    ptrdiff_t count;
    double *rows, *samples;
    double golden, sqrt_eps, shrink;
};

/* Scan the len frequencies omegas in order into s, whose rows and samples have room for len: each solved by
 * solve_point from the last solved wave's amplitudes, then from each of the shared starts (any other chain
 * would move the distances by about 1e-12).  A solved frequency's row and its sample (kgp_wave's, of phase 1)
 * are s's next, counted in s->count; one where every start fails is skipped.  KGP_SOLVED, or KGP_NO_MEMORY. */
int kgp_scan(struct kgp_scan *s, const double *omegas, ptrdiff_t len)
{
    const struct kgp_model *m = s->model;
    const ptrdiff_t n = m->n, w = 2 * n, cols = w + 3;
    double *starts = malloc(((1 + s->nstarts) * w + n * n + newton_work(n)) * sizeof(double));
    if (!starts)
        return KGP_NO_MEMORY;
    double *coupling = starts + (1 + s->nstarts) * w;
    memcpy(starts + w, s->starts, s->nstarts * w * sizeof(double)); /* after room for the warm start */
    s->count = 0;
    for (ptrdiff_t i = 0; i < len; i++) {
        double *row = s->rows + s->count * cols, *sample = s->samples + 4 * s->nodes * s->count;
        const int warm = s->count > 0;
        if (warm)
            memcpy(starts, row - cols + 2, w * sizeof(double));
        if (solve_point(m, s->limits, omegas[i], starts + (warm ? 0 : w), s->nstarts + warm, row, coupling,
                        coupling + n * n) != KGP_SOLVED)
            continue;
        kgp_wave(s->x, s->nodes, n, m->positions, row[1], row + 2, row[0], 1.0, 0.0, s->first, s->last, sample,
                 sample + 2 * s->nodes);
        s->count++;
    }
    free(starts);
    return KGP_SOLVED;
}

/* The wave closest to a state: its distance dist; best -1 for the zero wave, i < count for the scan's wave i,
 * and count for a refinement's; and, unless it is the zero wave, its row (2n + 3 floats, the scan's layout) in
 * row.  The frequencies of the refinement's solves, solved of them, are in refined, which the search allocates
 * and the caller frees with kgp_free. */
struct kgp_nearest {
    double dist;
    ptrdiff_t best;
    double *row;
    ptrdiff_t solved;
    double *refined;
};

enum { REFINE_ROOM = 4 }; /* the refinement solves a search first makes room for, doubled as needed */

/* The frequencies solved so far and their amplitudes, a dict in insertion order: entry i is a key and its w
 * floats.  There is room for the scan's count keys and room refinement solves, and for as many frequencies
 * in the list of the refinement's solves. */
struct solved {
    double *entries;
    ptrdiff_t size, w, room;
};

/* Room for one more refinement solve, in r's list of their frequencies and among sv's keys, the room of both
 * doubled when it is full: KGP_SOLVED, or KGP_NO_MEMORY */
static int make_room(const struct kgp_scan *s, struct kgp_nearest *r, struct solved *sv)
{
    if (r->solved < sv->room)
        return KGP_SOLVED;
    const ptrdiff_t room = 2 * sv->room;
    double *refined = realloc(r->refined, room * sizeof(double));
    if (!refined)
        return KGP_NO_MEMORY;
    r->refined = refined;
    double *entries = realloc(sv->entries, (s->count + room) * (1 + sv->w) * sizeof(double));
    if (!entries)
        return KGP_NO_MEMORY;
    sv->entries = entries;
    sv->room = room;
    return KGP_SOLVED;
}

/* Set omega's amplitudes to c as a dict of floats sets them: in place where a key equals omega (-0.0 equals
 * 0.0, and the key keeps its sign), else as a new last key */
static void solved_put(struct solved *s, double omega, const double *c)
{
    const ptrdiff_t stride = 1 + s->w;
    ptrdiff_t i = 0;
    while (i < s->size && s->entries[i * stride] != omega)
        i++;
    if (i == s->size)
        s->entries[s->size++ * stride] = omega;
    memcpy(s->entries + i * stride + 1, c, s->w * sizeof(double));
}

/* The amplitudes of the first key of least |key - omega|, as Python's min over the dict picks it */
static const double *solved_nearest(const struct solved *s, double omega)
{
    const ptrdiff_t stride = 1 + s->w;
    ptrdiff_t best = 0;
    double gap = fabs(s->entries[0] - omega);
    for (ptrdiff_t i = 1; i < s->size; i++) {
        const double g = fabs(s->entries[i * stride] - omega);
        if (g < gap) {
            best = i;
            gap = g;
        }
    }
    return s->entries + best * stride + 1;
}

/* One refinement solve of the search at u, solve_point's from the nearest solved frequency's amplitudes, and
 * its wave's distance in *fu.  A solved wave becomes u's entry of the solved frequencies and, if strictly
 * closer, the best; a failed or collapsed solve is KGP_FAILED or KGP_ZERO, which ends the search.  u lies
 * inside the bracket of two solved frequencies, so inside the band. */
static int refine(const struct kgp_metric *m, const struct kgp_scan *s, struct kgp_nearest *r, struct solved *sv,
                  double u, double *row, double *coupling, double *work, double *sample, double *fu)
{
    const ptrdiff_t w = 2 * s->model->n;
    const struct kgp_wave wave = {sample, sample + 2 * s->nodes, s->nodes};
    int status = make_room(s, r, sv);
    if (status != KGP_SOLVED)
        return status;
    r->refined[r->solved++] = u;
    status = solve_point(s->model, s->limits, u, solved_nearest(sv, u), 1, row, coupling, work);
    if (status != KGP_SOLVED)
        return status;
    solved_put(sv, u, row + 2);
    kgp_wave(s->x, s->nodes, s->model->n, s->model->positions, row[1], row + 2, u, 1.0, 0.0, s->first, s->last,
             sample, sample + 2 * s->nodes);
    *fu = kgp_fit_dist(m, &wave);
    if (*fu < r->dist) {
        r->dist = *fu;
        r->best = s->count;
        memcpy(r->row, row, (w + 3) * sizeof(double));
    }
    return KGP_SOLVED;
}

/* Brent's minimization of the distance over [a, b] from x, at distance fx, until x is within 2 tol of both
 * ends, each evaluation a refine; simulator.dist_to_manifold's Python loop operation for operation.  Each
 * step fits a parabola through the three best points so far and takes its vertex, or, where the parabola
 * is not trusted, a golden-section step into the larger part of the bracket (R. P. Brent, Algorithms for
 * Minimization without Derivatives, 1973, ch. 5; tol gains sqrt(eps)|x| at each step against roundoff).
 * A failed or collapsed solve ends the search as its convergence does, with KGP_SOLVED. */
static int brent(const struct kgp_metric *m, const struct kgp_scan *s, struct kgp_nearest *r, struct solved *sv,
                 double a, double b, double x, double fx, double *row, double *coupling, double *work,
                 double *sample)
{
    const double tol = (b - a) * s->shrink;
    double v = x, w = x, fv = fx, fw = fx, d = 0.0, e = 0.0;
    for (;;) {
        const double mid = 0.5 * (a + b);
        const double tol1 = s->sqrt_eps * fabs(x) + tol / 3.0;
        const double tol2 = 2.0 * tol1;
        if (fabs(x - mid) <= tol2 - 0.5 * (b - a))
            return KGP_SOLVED;
        double p = 0.0, q = 0.0, t = 0.0;
        if (fabs(e) > tol1) { /* the parabola through (v, fv), (w, fw), (x, fx): its vertex is x + p / q */
            t = (x - w) * (fx - fv);
            q = (x - v) * (fx - fw);
            p = (x - v) * q - (x - w) * t;
            q = 2.0 * (q - t);
            if (q > 0.0)
                p = -p;
            q = fabs(q);
            t = e;
            e = d;
        }
        if (fabs(p) < fabs(0.5 * q * t) && q * (a - x) < p && p < q * (b - x)) { /* a shrinking step inside */
            d = p / q;
            if ((x + d) - a < tol2 || b - (x + d) < tol2)
                d = x < mid ? tol1 : -tol1;
        } else {
            e = (x >= mid ? a : b) - x;
            d = s->golden * e;
        }
        const double u = x + (fabs(d) >= tol1 ? d : copysign(tol1, d));
        double fu;
        const int status = refine(m, s, r, sv, u, row, coupling, work, sample, &fu);
        if (status == KGP_FAILED || status == KGP_ZERO)
            return KGP_SOLVED;
        if (status != KGP_SOLVED)
            return status;
        if (fu <= fx) {
            if (u < x)
                b = x;
            else
                a = x;
            v = w, fv = fw, w = x, fw = fx, x = u, fx = fu;
        } else {
            if (u < x)
                a = u;
            else
                b = u;
            if (fu <= fw || w == x)
                v = w, fv = fw, w = u, fw = fu;
            else if (fu <= fv || v == x || v == w)
                v = u, fv = fu;
        }
    }
}

/* The wave closest to metric m's state among the zero wave, the scan s's waves and a refinement between the
 * best scan wave's solved neighbours, into r: simulator.dist_to_manifold after its scan, operation for
 * operation.  The zero wave's distance comes first, then each scan wave's in order, a strictly smaller one
 * the best; where a scan wave is best and more than one frequency was solved, brent searches the bracket of
 * the solved frequencies on either side of the best (the best's own where it has none), its tolerance
 * shrink times the bracket.  Returns KGP_SOLVED, or KGP_NO_MEMORY with r->refined NULL. */
int kgp_nearest(const struct kgp_metric *m, const struct kgp_scan *s, struct kgp_nearest *r)
{
    const ptrdiff_t n = s->model->n, w = 2 * n, cols = w + 3;
    double *block = malloc((cols + n * n + newton_work(n) + 4 * s->nodes) * sizeof(double));
    struct solved sv = {malloc((s->count + REFINE_ROOM) * (1 + w) * sizeof(double)), 0, w, REFINE_ROOM};
    r->refined = malloc(REFINE_ROOM * sizeof(double));
    r->solved = 0;
    int status = block && sv.entries && r->refined ? KGP_SOLVED : KGP_NO_MEMORY;
    if (status != KGP_SOLVED)
        goto done;
    double *row = block, *coupling = row + cols, *work = coupling + n * n, *sample = work + newton_work(n);
    r->dist = kgp_fit_dist(m, NULL);
    r->best = -1;
    for (ptrdiff_t i = 0; i < s->count; i++) {
        const double *scanned = s->rows + i * cols, *p = s->samples + 4 * s->nodes * i;
        const struct kgp_wave wave = {p, p + 2 * s->nodes, s->nodes};
        solved_put(&sv, scanned[0], scanned + 2);
        const double dist = kgp_fit_dist(m, &wave);
        if (dist < r->dist) {
            r->dist = dist;
            r->best = i;
        }
    }
    if (r->best >= 0)
        memcpy(r->row, s->rows + r->best * cols, cols * sizeof(double));
    if (r->best >= 0 && sv.size > 1) {
        const double x = r->row[0], *keys = sv.entries;
        const ptrdiff_t stride = 1 + w;
        ptrdiff_t at = 0, below = -1, above = -1; /* the key equal to x, the largest below it, the least above */
        for (ptrdiff_t i = 0; i < sv.size; i++) {
            const double k = keys[i * stride];
            if (k == x)
                at = i;
            else if (k < x && (below < 0 || k > keys[below * stride]))
                below = i;
            else if (k > x && (above < 0 || k < keys[above * stride]))
                above = i;
        }
        const double lo = keys[(below < 0 ? at : below) * stride], hi = keys[(above < 0 ? at : above) * stride];
        status = brent(m, s, r, &sv, lo, hi, x, r->dist, row, coupling, work, sample);
    }
done:
    if (status < 0) {
        free(r->refined);
        r->refined = NULL;
        r->solved = 0;
    }
    free(sv.entries);
    free(block);
    return status;
}

/* The entries below expose the solve's parts one by one, so that each can be checked on its own */

void kgp_residual(const struct kgp_model *m, const double *coupling, double k2, const double *c, double *res,
                  double *slopes)
{
    residual(m, coupling, k2, c, res, slopes);
}

void kgp_jacobian(ptrdiff_t n, const double *coupling, double k2, const double *slopes, double *jac)
{
    jacobian(n, coupling, k2, slopes, jac);
}

int kgp_solve_linear(ptrdiff_t w, double *a, double *b, double *x)
{
    return solve_linear(w, a, b, x);
}

double kgp_sup_norm(const double *x, ptrdiff_t len)
{
    return sup_norm(x, len);
}

/* 10^k as t 2^exp2 <= 10^k < (t + 1) 2^exp2, the 128-bit t = hi 2^64 + lo with 2^127 <= t < 2^128 */
struct kgp_pow10 {
    uint64_t hi, lo;
    int64_t exp2;
};

typedef unsigned __int128 u128;

#define E16 10000000000000000ull
#define E17 100000000000000000ull

static const char digit_pairs[] = "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
                                  "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
                                  "8081828384858687888990919293949596979899";

/* The 17 significant digits of the finite x > 0, rounded half to even, as d in [1e16, 1e17) and the
 * decimal exponent of the first, x ~ d 10^(exp10 - 16).  x = m 2^e with 2^52 <= m < 2^53 is multiplied by
 * pow10[k], k = 16 - exp10, into 192 bits; the truncated power and the dropped low bits put x 10^k less
 * than 2^-63 below the exact one, so it rounds as the exact one unless the top 64 bits of its fraction lie
 * within 2^-54 of one half, where 0 is returned for an exact conversion. */
static int digits17(double x, const struct kgp_pow10 *pow10, uint64_t *d, int *exp10)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t m = bits & ((1ull << 52) - 1);
    int e = (int)(bits >> 52);
    if (e == 0) { /* subnormal: normalized to 53 bits */
        const int shift = __builtin_clzll(m) - 11;
        m <<= shift;
        e = 1 - shift;
    } else {
        m |= 1ull << 52;
    }
    e -= 1075;
    /* 2^(e + 52) <= x, so x 10^k >= 1e16 at k = 16 - floor((e + 52) log10 2), and x 10^k < 1e18: 2^32 log10 2
     * rounded down gives that floor exactly for every float64 exponent */
    int k = 16 - (int)(((int64_t)(e + 52) * 1292913986) >> 32);
    for (;; k--) {
        const struct kgp_pow10 *t = pow10 + k;
        const u128 low = (u128)m * t->lo, high = (u128)m * t->hi;
        const u128 mid = (low >> 64) + (uint64_t)high;
        const u128 top = ((high >> 64) + (uint64_t)(mid >> 64)) << 64 | (uint64_t)mid; /* product >> 64 */
        const int f = (int)(-(e + t->exp2)); /* fraction bits, 123 ... 130 */
        uint64_t n = (uint64_t)(top >> (f - 64));
        if (n >= E17)
            continue;
        const uint64_t frac = f >= 128 ? (uint64_t)(top >> (f - 128))
                                       : (uint64_t)(((u128)(uint64_t)mid << 64 | (uint64_t)low) >> (f - 64));
        if (frac - ((1ull << 63) - (1ull << 10)) < (1ull << 11))
            return 0;
        n += frac >> 63;
        if (n == E17) {
            n = E16;
            k--;
        }
        *d = n;
        *exp10 = 16 - k;
        return 1;
    }
}

/* x as Python's '%.17g' prints it at out ('nan' for a NaN of either sign); returns the end.  Writes at most
 * 25 bytes: the text and, where the digits are not decided, snprintf's NUL after it. */
static char *format_value(double x, const struct kgp_pow10 *pow10, char *out)
{
    if (x != x) {
        memcpy(out, "nan", 3);
        return out + 3;
    }
    if (signbit(x)) {
        *out++ = '-';
        x = -x;
    }
    if (x == 0.0) {
        *out++ = '0';
        return out;
    }
    if (isinf(x)) {
        memcpy(out, "inf", 3);
        return out + 3;
    }
    uint64_t n;
    int exp10;
    if (!digits17(x, pow10, &n, &exp10))
        return out + snprintf(out, 24, "%.17g", x);
    char d[17];
    for (int i = 15; i > 0; i -= 2, n /= 100)
        memcpy(d + i, digit_pairs + 2 * (n % 100), 2);
    d[0] = (char)('0' + n);
    int len = 17; /* without the trailing zeros */
    while (d[len - 1] == '0')
        len--;
    if (exp10 < -4 || exp10 >= 17) { /* d.ddde+XX */
        *out++ = d[0];
        if (len > 1) {
            *out++ = '.';
            memcpy(out, d + 1, len - 1);
            out += len - 1;
        }
        *out++ = 'e';
        *out++ = exp10 < 0 ? '-' : '+';
        int a = abs(exp10);
        if (a >= 100) {
            *out++ = (char)('0' + a / 100);
            a %= 100;
        }
        memcpy(out, digit_pairs + 2 * a, 2);
        return out + 2;
    }
    if (exp10 < 0) { /* 0.000ddd */
        memcpy(out, "0.000", 1 - exp10);
        out += 1 - exp10;
        memcpy(out, d, len);
        return out + len;
    }
    memcpy(out, d, exp10 + 1); /* ddd.ddd */
    out += exp10 + 1;
    if (len > exp10 + 1) {
        *out++ = '.';
        memcpy(out, d + exp10 + 1, len - exp10 - 1);
        out += len - exp10 - 1;
    }
    return out;
}

/* The CSV lines of the rows x cols row-major x at out: each value as Python's '%.17g', comma-separated, each
 * row CRLF-ended; pow10[k] for k = -292 ... 340.  out must hold 25 bytes a value and 2 a row.  Returns the
 * bytes written. */
ptrdiff_t kgp_format_rows(const double *x, ptrdiff_t rows, ptrdiff_t cols, const struct kgp_pow10 *pow10, char *out)
{
    char *end = out;
    for (ptrdiff_t i = 0; i < rows; i++) {
        for (ptrdiff_t j = 0; j < cols; j++) {
            end = format_value(x[i * cols + j], pow10, end);
            *end++ = ',';
        }
        end -= cols > 0;
        memcpy(end, "\r\n", 2);
        end += 2;
    }
    return end - out;
}

/* The declarations that the sources of the compiled passes share: the node law (libm_pow, horner), the model
 * block, the statuses, a run, a state's metric and a candidate wave, and what one source calls in another.
 *
 * Each expression of the steps and the solve is the one it transcribes,
 * operation for operation and operand for operand, and the build fuses and
 * reassociates nothing (-ffp-contract=off, no -ffast-math), so the results
 * are bit for bit those of the code it transcribes.  The library exports its
 * kgp_ entries alone: what one source calls in another is hidden (KGP_HIDDEN).
 */
#ifndef KGP_PASSES_H
#define KGP_PASSES_H

#include <stddef.h>

#define KGP_HIDDEN __attribute__((visibility("hidden")))

/* libm's pow, called through a pointer the compiler cannot see through: it
 * would turn pow(x, 2.0) into x * x, which rounds apart from numpy's and
 * Python's |z| ** 2, and work out brent's pow(invphi, 24.0) itself, where
 * the Python loop that brent transcribes called libm */
extern KGP_HIDDEN double (*volatile libm_pow)(double, double);

/* sum_d coef[d] s^(n - 1 - d) by Horner from 0.0, the coefficients highest degree first */
static inline double horner(const double *coef, int n, double s)
{
    double acc = 0.0;
    for (int d = 0; d < n; d++)
        acc = acc * s + coef[d];
    return acc;
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

enum { KGP_SOLVED, KGP_ZERO, KGP_FAILED, KGP_OUT_OF_BAND, KGP_NOT_FINITE, KGP_NO_MEMORY = -1, KGP_UNSOLVED = -2 };

enum { ROOM = 4 }; /* the entries a growing list first has room for, doubled as needed */

/* One run, stepped and sampled in one call (kgp_evolve): the buffers p (psi), q (pi) and k (the kick), of n
 * complex values each; dx and the step dt; the model and the node of each of its oscillators; and the samples, row
 * k / every of the series at step k, at time t0 + k dt.  The series has rows samples: its columns t, H, Q, the
 * energy norm and each of the nwindows seminorm windows, (start, stop) node pairs, one after another; then the
 * traces, rows of a complex value per oscillator, p's and then q's.  k is NULL when the run takes no steps. */
struct kgp_run {
    double *p, *q, *k;
    ptrdiff_t n;
    double dx, dt;
    const struct kgp_model *model;
    const ptrdiff_t *sites;
    ptrdiff_t every;
    double t0;
    ptrdiff_t nwindows;
    const ptrdiff_t *windows;
    ptrdiff_t rows;
    double *series, *traces;
};

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

/* the doubles of newton's work for n oscillators */
static inline size_t newton_work(ptrdiff_t n)
{
    return (size_t)(4 * n * n + 20 * n);
}

/* _passes_form.c */
KGP_HIDDEN double sample(const struct kgp_run *r, double m2, ptrdiff_t k);
KGP_HIDDEN double fit_dist(const struct kgp_metric *m, const struct kgp_wave *w);
double kgp_metric_sum(const struct kgp_metric *m);

/* _passes_solve.c */
KGP_HIDDEN int solve_point(const struct kgp_model *m, double omega, const double *starts, ptrdiff_t nstarts,
                           double *row, double *coupling, double *work);
KGP_HIDDEN int grow(double **list, ptrdiff_t *room, ptrdiff_t used, ptrdiff_t size);

#endif

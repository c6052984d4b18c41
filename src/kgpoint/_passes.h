/* The declarations that the sources of the compiled passes share: the node law (libm_pow, horner), the model
 * block and its m2, the statuses, a run, a scan and a state's view of its metric, and what one source calls in another.
 *
 * Each expression of the steps and the solve is the one it transcribes,
 * operation for operation and operand for operand, and the build fuses and
 * reassociates nothing (-ffp-contract=off, no -ffast-math), so the results
 * are bit for bit those of the references that the tests keep, such as
 * tests/test_manifold.py::reference_dist_to_manifold.  The library exports
 * its kgp_ entries alone: what one source calls in another is hidden.
 */
#ifndef KGP_PASSES_H
#define KGP_PASSES_H

#include <stddef.h>

#define KGP_HIDDEN __attribute__((visibility("hidden")))
#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* The builds of the stepping loop and of the energy form's whole groups, each one body compiled for a vector width:
 * plain, and on x86-64 for AVX2 and for AVX-512F by target attributes.  picked is the one build that both run, the
 * widest this CPU runs, picked when the library loads (kgp_pick, _passes_step.c). */
enum { PLAIN, AVX2, AVX512F, BUILDS };
extern KGP_HIDDEN int picked;

/* libm's pow, called through a pointer the compiler cannot see through: it
 * would turn pow(x, 2.0) into x * x, which rounds apart from numpy's and
 * Python's |z| ** 2, and work out brent's pow(invphi, 24.0) itself, where
 * the reference loop that brent transcribes (tests/test_manifold.py) calls libm */
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

/* The energy form's m2 of model m: Python's mass**2, libm's pow */
static inline double form_m2(const struct kgp_model *m)
{
    return libm_pow(m->mass, 2.0);
}

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

/* A frequency scan's solved waves and their metric, fixed for every search of the wave closest to a state, and
 * holding nothing of one: the model; the metric's outer window's nodes, their coordinates x and its Dirichlet end
 * nodes first and last (-1 where it holds none); dx and the windows of radius R = 1 ... r_max as (start, stop) node
 * pairs within the outer window; the shared Newton starts, nstarts of 2n floats one after another; and the count
 * solved frequencies' rows, laid out as the branch's, and their samples, psi and then pi on the window's nodes. */
struct kgp_scan {
    const struct kgp_model *model;
    ptrdiff_t nodes;
    const double *x;
    ptrdiff_t first, last;
    double dx;
    ptrdiff_t r_max;
    const ptrdiff_t *windows;
    ptrdiff_t nstarts;
    const double *starts;
    ptrdiff_t count;
    double *rows, *samples;
};

/* One state's metric, built for one call: the scan s, whose windows, dx and model it takes; the state p (psi) and
 * q (pi) on s's nodes; and scratch dp and dq of as many complex values each */
struct metric_view {
    const struct kgp_scan *s;
    const double *p, *q;
    double *dp, *dq;
};

/* the doubles of newton's work for n oscillators */
static inline size_t newton_work(ptrdiff_t n)
{
    return (size_t)(4 * n * n + 20 * n);
}

/* _passes_form.c */
KGP_HIDDEN double sample(const struct kgp_run *r, double m2, ptrdiff_t k);
KGP_HIDDEN double fit_dist(const struct metric_view *m, const double *wp, const double *wq);
KGP_HIDDEN double metric_sum(const struct kgp_scan *s, const double *p, const double *q);

/* _passes_solve.c */
KGP_HIDDEN int solve_point(const struct kgp_model *m, double omega, const double *starts, ptrdiff_t nstarts,
                           double *row, double *coupling, double *work);
KGP_HIDDEN int grow(double **list, ptrdiff_t *room, ptrdiff_t used, ptrdiff_t size);

#endif

/* A whole run: kick-drift-kick steps of the field on float64 views of the complex buffers, which keep numpy's bits,
 * the nodes' forces model._at_node's on numpy scalars, and the energy form's samples between them (_passes_form.c).
 */
#include <math.h>

#include "_passes.h"

/* the node law's pow (_passes.h) */
double (*volatile libm_pow)(double, double) = pow;

/* k = ((p[+1] - c p) + p[-1]) scale at float j */
static inline void stencil(const double *restrict p, double *restrict k, ptrdiff_t j, double c, double scale)
{
    k[j] = ((p[j + 2] - p[j] * c) + p[j - 2]) * scale;
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

/* steps kick-drift-kick steps of p (psi) and q (pi), the kick k = dt/2 acceleration; n >= 6 (3 nodes).
 *
 * k holds p's kick when primed, and is computed first otherwise; its two end
 * nodes are 0 and stay so.  Each step after the first applies the last one's
 * second half kick with its own first in one sweep; the last step's second
 * is applied before the call returns, so k holds p's kick again.  Kept out of
 * line so that the buffers stay restrict parameters: inlined into kgp_evolve,
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

/* The run r of steps kick-drift-kick steps, sampled at step 0 and every r->every steps: one run per sample
 * interval, k primed from the second on, and one for the steps past the last sample.  c, scale, force_scale and
 * m2 are Python's 2.0 + mass**2 * dx**2, 0.5 * dt / dx**2, 0.5 * dt / dx and mass**2, ** libm's pow as Python's.
 * A sample's squared energy norm is finite only if the whole state is, so p is checked past step 0 only when it is
 * not.  Returns the first sampled step at which p is not finite, where the run stops, or -1. */
ptrdiff_t kgp_evolve(const struct kgp_run *r, ptrdiff_t steps)
{
    const struct kgp_model *m = r->model;
    const double m2 = libm_pow(m->mass, 2.0), dx2 = libm_pow(r->dx, 2.0);
    const double c = 2.0 + m2 * dx2, scale = 0.5 * r->dt / dx2, force_scale = 0.5 * r->dt / r->dx;
    const ptrdiff_t every = r->every, n = 2 * r->n;
    sample(r, m2, 0);
    for (ptrdiff_t k = 0; k < steps;) {
        const ptrdiff_t interval = steps - k < every ? steps - k : every;
        run(r->p, r->q, r->k, n, r->dt, c, scale, m->n, r->sites, m->nslope, m->slope, force_scale, k > 0, interval);
        k += interval;
        if (interval == every && !isfinite(sample(r, m2, k)))
            for (ptrdiff_t j = 0; j < n; j++)
                if (!isfinite(r->p[j]))
                    return k;
    }
    return -1;
}

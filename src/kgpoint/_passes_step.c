/* A whole run: kick-drift-kick steps of the field on float64 views of the complex buffers, which keep numpy's bits,
 * the nodes' forces model._at_node's on numpy scalars, and the energy form's samples between them (_passes_form.c).
 *
 * The steps of a sample interval run as a wavefront (time skewing): in
 * groups of at most DEPTH steps, over chunks of CHUNK floats, each step one
 * chunk behind the one before, so that a group's chunks of the three buffers
 * stay in L1 while it takes its steps there.  Each chunk's update and its
 * stencil are separate loops, which vectorize at any width, and the one body
 * is built three times, plain, for AVX2 and for AVX-512F (builds).  One pick,
 * the widest build this CPU runs, made once when the library loads, chooses
 * the stepping loop's build and the energy form's together (kgp_pick).  Each
 * float still gets the same operations in the same order, so every build
 * keeps the bits.
 */
#include <math.h>

#include "_passes.h"

/* the node law's pow (_passes.h) */
double (*volatile libm_pow)(double, double) = pow;

/* a group's steps at most, and a chunk's floats (64 nodes): a group's DEPTH + 1 chunks of p, q and k, 3 KB a chunk,
 * stay in L1 */
enum { DEPTH = 8, CHUNK = 128 };

/* q += k, twice when the last step's second half kick is pending, then p += q dt, at the floats [a, e) */
ALWAYS_INLINE void update(double *restrict p, double *restrict q, const double *restrict k, ptrdiff_t a, ptrdiff_t e,
                          double dt, const int twice)
{
    if (twice)
        for (ptrdiff_t j = a; j < e; j++) {
            const double v = (q[j] + k[j]) + k[j];
            q[j] = v;
            p[j] = p[j] + v * dt;
        }
    else
        for (ptrdiff_t j = a; j < e; j++) {
            const double v = q[j] + k[j];
            q[j] = v;
            p[j] = p[j] + v * dt;
        }
}

/* One step's force cursor: the next site of the ascending sites to take, and its slope's coefficients */
struct cursor {
    ptrdiff_t next;
    const double *coef;
};

/* p's kick at the floats [a, e): k = ((p[+1] - c p) + p[-1]) scale, then k += F(p) force_scale at each site in them,
 * taken from the cursor on, the sites ascending: F = -2 u'(|p|^2) p, u' by Horner from the highest degree, and the
 * two products numpy's complex ones by a real (f zr - 0 zi, f zi + 0 zr), as model._at_node has them */
ALWAYS_INLINE void kick(const double *restrict p, double *restrict k, ptrdiff_t a, ptrdiff_t e, double c,
                        double scale, ptrdiff_t nsites, const ptrdiff_t *sites, const int *ncoef, struct cursor *at,
                        double force_scale)
{
    for (ptrdiff_t j = a; j < e; j++)
        k[j] = ((p[j + 2] - p[j] * c) + p[j - 2]) * scale;
    for (; at->next < nsites && 2 * sites[at->next] < e; at->next++) {
        const ptrdiff_t i = at->next, j = 2 * sites[i];
        const double zr = p[j], zi = p[j + 1];
        const double u = horner(at->coef, ncoef[i], libm_pow(hypot(zr, zi), 2.0));
        at->coef += ncoef[i];
        const double f = -2.0 * u;
        const double fr = f * zr - 0.0 * zi, fi = f * zi + 0.0 * zr;
        k[j] = k[j] + (fr * force_scale - fi * 0.0);
        k[j + 1] = k[j + 1] + (fr * 0.0 + fi * force_scale);
    }
}

/* steps kick-drift-kick steps of p (psi) and q (pi), the kick k = dt/2 acceleration; n >= 6 (3 nodes), the nsites
 * sites ascending, each in 1 ... n / 2 - 2.
 *
 * k holds p's kick when primed, and is computed first otherwise; its two end
 * nodes are 0 and stay so.  A group of steps walks the grid in chunks: at
 * wavefront time t, step s of the group takes chunk t - s, [a, e).  There
 * it updates, applying the last step's second half kick with its own first
 * after the group's first step, and then takes the kick a node behind, at
 * [a - 2, e - 2) ([2, n - 2) at the ends), with the forces of the sites
 * there.  So step s's update reads the kick that step s - 1 took at its own
 * chunk and, earlier in time t, at the next; and step s's kick reads p at
 * [a - 4, e), which step s has drifted and step s + 1, a chunk behind later
 * in time t, has not.  A last stage, a chunk behind the group's last step,
 * applies that step's second half kick, so k holds p's kick again when the
 * call returns.  Each step takes the sites from a cursor of its own, so it
 * scans them once.
 */
ALWAYS_INLINE void wavefront(double *restrict p, double *restrict q, double *restrict k, ptrdiff_t n, double dt,
                             double c, double scale, ptrdiff_t nsites, const ptrdiff_t *sites, const int *ncoef,
                             const double *coef, double force_scale, int primed, ptrdiff_t steps)
{
    const ptrdiff_t chunks = (n + CHUNK - 1) / CHUNK;
    if (!primed && steps > 0) {
        struct cursor all = {0, coef};
        kick(p, k, 2, n - 2, c, scale, nsites, sites, ncoef, &all, force_scale);
    }
    for (ptrdiff_t done = 0; done < steps; done += DEPTH) {
        const ptrdiff_t depth = steps - done < DEPTH ? steps - done : DEPTH;
        struct cursor at[DEPTH];
        for (ptrdiff_t s = 0; s < depth; s++)
            at[s] = (struct cursor){0, coef};
        for (ptrdiff_t t = 0; t < chunks + depth; t++)
            for (ptrdiff_t s = t < chunks ? 0 : t - chunks + 1; s <= depth && s <= t; s++) {
                const ptrdiff_t a = (t - s) * CHUNK, e = a + CHUNK < n ? a + CHUNK : n;
                if (s == depth) {
                    for (ptrdiff_t j = a; j < e; j++)
                        q[j] = q[j] + k[j];
                    continue;
                }
                update(p, q, k, a, e, dt, s > 0);
                kick(p, k, a > 0 ? a - 2 : 2, e < n ? e - 2 : n - 2, c, scale, nsites, sites, ncoef, &at[s],
                     force_scale);
            }
    }
}

/* The builds of the wavefront, each its one body compiled for a vector width, and those for x86-64's vector
 * extensions run only where the CPU has them (supported) */
#define RUN(name, ...)                                                                                                \
    static __VA_ARGS__ __attribute__((noinline)) void name(                                                          \
        double *restrict p, double *restrict q, double *restrict k, ptrdiff_t n, double dt, double c, double scale, \
        ptrdiff_t nsites, const ptrdiff_t *sites, const int *ncoef, const double *coef, double force_scale,         \
        int primed, ptrdiff_t steps)                                                                                 \
    {                                                                                                                \
        wavefront(p, q, k, n, dt, c, scale, nsites, sites, ncoef, coef, force_scale, primed, steps);                \
    }

RUN(run_plain)
#if defined(__x86_64__)
RUN(run_avx2, __attribute__((target("avx2"))))
RUN(run_avx512f, __attribute__((target("avx512f"))))
#endif

typedef __typeof__(run_plain) run_fn;

static run_fn *const builds[BUILDS] = {
    [PLAIN] = run_plain,
#if defined(__x86_64__)
    [AVX2] = run_avx2,
    [AVX512F] = run_avx512f,
#endif
};

/* whether this CPU runs the build */
static int supported(int build)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (build == AVX512F)
        return __builtin_cpu_supports("avx512f");
    if (build == AVX2)
        return __builtin_cpu_supports("avx2");
#endif
    return build == PLAIN;
}

int picked;

/* Picks build, of the stepping loop and the energy form both, where this CPU runs it, and for -1 the widest it runs;
 * returns the build picked.  The library picks the widest when it loads; a fresh build's known-answer check
 * (_passes.py) picks each in turn. */
int kgp_pick(int build)
{
    if (build < 0) {
        build = BUILDS - 1;
        while (!supported(build))
            build--;
    }
    if (build < BUILDS && supported(build))
        picked = build;
    return picked;
}

static __attribute__((constructor)) void pick(void)
{
    kgp_pick(-1);
}

/* The run r of steps kick-drift-kick steps, sampled at step 0 and every r->every steps: one run per sample
 * interval, k primed from the second on, and one for the steps past the last sample.  c, scale, force_scale and
 * m2 are Python's 2.0 + mass**2 * dx**2, 0.5 * dt / dx**2, 0.5 * dt / dx and mass**2 (form_m2), ** libm's pow as
 * Python's.  A sample's squared energy norm is finite only if the whole state is, so p is checked past step 0 only
 * when it is not.  Returns the first sampled step at which p is not finite, where the run stops, or -1. */
ptrdiff_t kgp_evolve(const struct kgp_run *r, ptrdiff_t steps)
{
    const struct kgp_model *m = r->model;
    const double m2 = form_m2(m), dx2 = libm_pow(r->dx, 2.0);
    const double c = 2.0 + m2 * dx2, scale = 0.5 * r->dt / dx2, force_scale = 0.5 * r->dt / r->dx;
    const ptrdiff_t every = r->every, n = 2 * r->n;
    sample(r, m2, 0);
    for (ptrdiff_t k = 0; k < steps;) {
        const ptrdiff_t interval = steps - k < every ? steps - k : every;
        builds[picked](r->p, r->q, r->k, n, r->dt, c, scale, m->n, r->sites, m->nslope, m->slope, force_scale, k > 0,
                       interval);
        k += interval;
        if (interval == every && !isfinite(sample(r, m2, k)))
            for (ptrdiff_t j = 0; j < n; j++)
                if (!isfinite(r->p[j]))
                    return k;
    }
    return -1;
}

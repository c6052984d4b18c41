/* The compiled passes: kick-drift-kick steps of the field, and the Newton solve of the solitary
 * amplitude system.
 *
 * Each expression is the one it transcribes, operation for operation and
 * operand for operand, and the build fuses and reassociates nothing
 * (-ffp-contract=off, no -ffast-math), so the results are bit for bit
 * those of the code it transcribes.  The steps run on float64 views of the
 * complex buffers and keep numpy's bits; the oscillator nodes' forces are
 * model._at_node's on numpy scalars.  The solve keeps the bits of the damped
 * Newton loop on Python floats that solitary.solve_profile ran before it.
 */
#include <math.h>
#include <stddef.h>
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

/* run's arguments but the last two, fixed for a run: the buffers p (psi), q (pi) and k (the kick), n floats
 * each; the stencil's c and scale; and per oscillator site its node, the count of its slope coefficients,
 * and those coefficients one site after another, highest degree first */
struct kgp_field {
    double *p, *q, *k;
    ptrdiff_t n;
    double dt, c, scale;
    ptrdiff_t nsites;
    const ptrdiff_t *sites;
    const int *ncoef;
    const double *coef;
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
    run(f->p, f->q, f->k, f->n, f->dt, f->c, f->scale, f->nsites, f->sites, f->ncoef, f->coef, f->force_scale, primed,
        steps);
}

/* The amplitude system of one model, fixed for its solves: n oscillators, and per oscillator the count of
 * its coefficients of u'(s) (at least 1) and of u''(s) (0 at degree 1), each list one oscillator after
 * another, highest degree first; the Newton loop's iteration cap and its two tolerances */
struct kgp_model {
    ptrdiff_t n;
    const int *nslope;
    const double *slope;
    const int *ncurv;
    const double *curv;
    long max_iter;
    double tol, zero_tol;
};

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

enum { KGP_SOLVED, KGP_ZERO, KGP_FAILED, KGP_NO_MEMORY = -1 };

/* The damped Newton solve of model m's amplitude system from the finite amplitudes c (Re and Im
 * interleaved), k2 = 2 kappa > 0 and coupling the n x n rows exp(-kappa |X_J - X_K|).
 *
 * The phase gauge Im C_1 = 0 replaces residual equation 1 and Jacobian row
 * 1; on residual increase the step is halved up to 8 times.  Returns
 * KGP_SOLVED with the solved amplitudes in c and their residual's sup-norm in
 * *norm_out; KGP_ZERO when every |C| <= zero_tol; KGP_FAILED with the
 * residual's sup-norm in *norm_out after max_iter iterations, as soon as an
 * iterate's residual is not finite, at an exactly zero pivot, or when the
 * final residual exceeds tol; and KGP_NO_MEMORY.
 */
int kgp_solve(const struct kgp_model *m, const double *coupling, double k2, double *c, double *norm_out)
{
    const ptrdiff_t n = m->n, w = 2 * n;
    double *work = malloc((size_t)(w * w + 7 * w + 6 * n) * sizeof(double));
    if (!work)
        return KGP_NO_MEMORY;
    double *jac = work, *cur = jac + w * w, *res = cur + w, *c_try = res + w, *res_try = c_try + w;
    double *g = res_try + w, *b = g + w, *delta = b + w, *slopes = delta + w, *slopes_try = slopes + 3 * n;
    double norm = 0.0;
    int status = KGP_FAILED;
    long it;

    memcpy(cur, c, w * sizeof(double));
    gauge_rotate(n, cur);
    residual(m, coupling, k2, cur, res, slopes);
    for (it = 0; it < m->max_iter; it++) {
        norm = sup_norm(res, w);
        if (norm <= m->tol)
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
    if (it == m->max_iter) {
        norm = sup_norm(res, w);
        goto done;
    }

    gauge_rotate(n, cur);
    residual(m, coupling, k2, cur, res, slopes);
    norm = sup_norm(res, w);
    if (norm > m->tol)
        goto done;
    memcpy(c, cur, w * sizeof(double));
    double top = hypot(cur[0], cur[1]); /* max of the moduli as Python's max takes it */
    for (ptrdiff_t k = 1; k < n; k++) {
        const double r = hypot(cur[2 * k], cur[2 * k + 1]);
        if (r > top)
            top = r;
    }
    status = top <= m->zero_tol ? KGP_ZERO : KGP_SOLVED;
done:
    *norm_out = norm;
    free(work);
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

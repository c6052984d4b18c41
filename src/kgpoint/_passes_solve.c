/* The Newton solve of the solitary amplitude system at one frequency (solve_point), behind the continuation in
 * frequency, whose branch of one frequency is the single solve, and the manifold distance's frequency scan and search.
 *
 * The solve keeps the bits of a damped Newton loop on Python floats
 * (tests/test_solitary.py::reference_solve_profile), and the branch those of
 * a loop of solve_profile calls (reference_continue_branch there).  A call
 * passes only what varies: the Newton limits (at newton) are this file's, and
 * a branch allocates its own rows.
 */
#include <math.h>
#include <stdlib.h>
#include <string.h>

#include "_passes.h"

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

/* The Newton limits of every solve: the iteration cap, the residual tolerance and the zero-branch bound */
enum { MAX_ITER = 100 };
static const double RESIDUAL_TOL = 1e-11, ZERO_TOL = 1e-9;

/* The damped Newton solve of model m's amplitude system from the finite amplitudes c (Re and Im
 * interleaved), k2 = 2 kappa > 0 and coupling the n x n rows exp(-kappa |X_J - X_K|).
 *
 * The phase gauge Im C_1 = 0 replaces residual equation 1 and Jacobian row
 * 1; on residual increase the step is halved up to 8 times.  Returns
 * KGP_SOLVED with the solved amplitudes in c and their residual's sup-norm in
 * *norm_out once it is at most RESIDUAL_TOL; KGP_ZERO when every |C| <=
 * ZERO_TOL; KGP_FAILED with the residual's sup-norm in *norm_out after
 * MAX_ITER iterations, as soon as an iterate's residual is not finite, at an
 * exactly zero pivot, or when the final residual exceeds RESIDUAL_TOL.  work
 * holds newton_work(n) doubles.
 */
static int newton(const struct kgp_model *m, const double *coupling, double k2, double *c, double *norm_out,
                  double *work)
{
    const ptrdiff_t n = m->n, w = 2 * n;
    double *jac = work, *cur = jac + w * w, *res = cur + w, *c_try = res + w, *res_try = c_try + w;
    double *g = res_try + w, *b = g + w, *delta = b + w, *slopes = delta + w, *slopes_try = slopes + 3 * n;
    double norm = 0.0;
    int status = KGP_FAILED;
    int it;

    memcpy(cur, c, w * sizeof(double));
    gauge_rotate(n, cur);
    residual(m, coupling, k2, cur, res, slopes);
    for (it = 0; it < MAX_ITER; it++) {
        norm = sup_norm(res, w);
        if (norm <= RESIDUAL_TOL)
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
    if (it == MAX_ITER) {
        norm = sup_norm(res, w);
        goto done;
    }

    gauge_rotate(n, cur);
    residual(m, coupling, k2, cur, res, slopes);
    norm = sup_norm(res, w);
    if (norm > RESIDUAL_TOL)
        goto done;
    memcpy(c, cur, w * sizeof(double));
    double top = hypot(cur[0], cur[1]); /* max of the moduli as Python's max takes it */
    for (ptrdiff_t k = 1; k < n; k++) {
        const double r = hypot(cur[2 * k], cur[2 * k + 1]);
        if (r > top)
            top = r;
    }
    status = top <= ZERO_TOL ? KGP_ZERO : KGP_SOLVED;
done:
    *norm_out = norm;
    return status;
}

/* The row of the frequency omega up to its amplitudes, for model m: omega and kappa = sqrt(max(mass^2 -
 * omega^2, 0)), as solitary.kappa forms it, and the coupling rows exp(-kappa |X_J - X_K|) of libm's exp, the
 * function math.exp calls.  Beyond the mass it is KGP_OUT_OF_BAND; at it the zero wave, amplitudes and residual
 * 0, is the row, unsolved, as solve_profile returns it, and KGP_SOLVED; else KGP_UNSOLVED. */
static int frequency_row(const struct kgp_model *m, double omega, double *row, double *coupling)
{
    const ptrdiff_t n = m->n;
    const double mass = m->mass, *pos = m->positions;
    if (!(fabs(omega) <= mass))
        return KGP_OUT_OF_BAND;
    const double d = mass * mass - omega * omega, kap = sqrt(0.0 > d ? 0.0 : d); /* Python's max(d, 0.0) */
    row[0] = omega;
    row[1] = kap;
    for (ptrdiff_t j = 0; j < n; j++)
        for (ptrdiff_t k = 0; k < n; k++)
            coupling[j * n + k] = exp(-kap * fabs(pos[j] - pos[k]));
    if (fabs(omega) == mass) {
        memset(row + 2, 0, (2 * n + 1) * sizeof(double)); /* the amplitudes and the residual */
        return KGP_SOLVED;
    }
    return KGP_UNSOLVED;
}

/* The solitary wave of model m at the frequency omega, as its row of 2n + 3 floats: omega,
 * kappa, Re and Im of each amplitude, and the residual's sup-norm.  frequency_row forms the row and the
 * coupling (n x n doubles); then newton (work newton_work(n) doubles) runs from each of the nstarts starts, 2n
 * floats each, in order until one is KGP_SOLVED, and the last start's status is the point's.  A start that is
 * not finite is KGP_NOT_FINITE, as solve_profile refuses it. */
int solve_point(const struct kgp_model *m, double omega, const double *starts, ptrdiff_t nstarts, double *row,
                double *coupling, double *work)
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
        status = newton(m, coupling, 2.0 * row[1], row + 2, row + w + 2, work);
        if (status == KGP_SOLVED)
            break;
    }
    return status;
}

/* Room for entry used of the list *list of *room entries, each of size doubles, its room doubled when it is
 * full: KGP_SOLVED, or KGP_NO_MEMORY with the list as it was */
int grow(double **list, ptrdiff_t *room, ptrdiff_t used, ptrdiff_t size)
{
    if (used < *room)
        return KGP_SOLVED;
    double *more = realloc(*list, 2 * *room * size * sizeof(double));
    if (!more)
        return KGP_NO_MEMORY;
    *list = more;
    *room *= 2;
    return KGP_SOLVED;
}

/* Point k of model m's branch at frequency omega into row, the k rows before it solved: the first from the guess,
 * the second from the first's amplitudes.  From the third on the first start is the secant start last + r (last
 * - prev) on the last two solved rows, r = (omega - omega_last) / (omega_last - omega_prev), with r as CPython
 * 3.10-3.12 multiply a complex by a float, (r dr - 0.0 di, r di + 0.0 dr); the second is last's amplitudes.
 * starts holds the two starts, 4n doubles. */
static int branch_point(const struct kgp_model *m, double omega, const double *guess, ptrdiff_t k, double *row,
                        double *starts, double *coupling, double *work)
{
    const ptrdiff_t w = 2 * m->n;
    if (k == 0)
        return solve_point(m, omega, guess, 1, row, coupling, work);
    const double *last = row - (w + 3), *prev = last - (w + 3);
    if (k == 1)
        return solve_point(m, omega, last + 2, 1, row, coupling, work);
    const double r = (omega - last[0]) / (last[0] - prev[0]);
    for (ptrdiff_t j = 2; j < w + 2; j += 2) {
        const double dr = last[j] - prev[j], di = last[j + 1] - prev[j + 1];
        starts[j - 2] = last[j] + (r * dr - 0.0 * di);
        starts[j - 1] = last[j + 1] + (r * di + 0.0 * dr);
    }
    memcpy(starts + w, last + 2, w * sizeof(double));
    return solve_point(m, omega, starts, 2, row, coupling, work);
}

/* Continue model m's branch from the guess (2n floats) over the count frequencies start + step k, step signed
 * (a single solve is count 1 and step -0.0, whose frequency start + -0.0 is start bit for bit, -0.0 included),
 * into *rows, which the call allocates and grows as it solves and the caller frees with kgp_free: solve_point's
 * row of 2n + 3 floats for each of the *solved points solved.  Returns KGP_SOLVED when every frequency is solved;
 * else the status of the point where the branch stopped, whose row follows the last solved one and holds its
 * frequency first and a failed solve's residual last: a collapse, a failure, a frequency outside the band or a
 * start that is not finite.  KGP_NO_MEMORY with *rows NULL. */
int kgp_branch(const struct kgp_model *m, double start, double step, ptrdiff_t count, const double *guess,
               double **rows, ptrdiff_t *solved)
{
    const ptrdiff_t n = m->n, cols = 2 * n + 3;
    ptrdiff_t room = ROOM, k = 0;
    double *starts = malloc((4 * n + n * n + newton_work(n)) * sizeof(double));
    *rows = malloc(room * cols * sizeof(double));
    int status = starts && *rows ? KGP_SOLVED : KGP_NO_MEMORY;
    for (; status == KGP_SOLVED && k < count; k++) {
        status = grow(rows, &room, k, cols);
        if (status != KGP_SOLVED)
            break;
        double *row = *rows + k * cols;
        row[0] = start + step * (double)k; /* the frequency, also where it lies outside the band */
        status = branch_point(m, row[0], guess, k, row, starts, starts + 4 * n, starts + 4 * n + n * n);
        if (status != KGP_SOLVED)
            break;
    }
    free(starts);
    *solved = k;
    if (status == KGP_NO_MEMORY) {
        free(*rows);
        *rows = NULL;
    }
    return status;
}

void kgp_free(void *p)
{
    free(p);
}

/* The residual of model m's amplitude system at the frequency omega and the amplitudes c (Re and Im
 * interleaved), into res: kappa and the coupling as every solve forms them (frequency_row), then residual's.
 * KGP_OUT_OF_BAND beyond the mass with res unset, KGP_NO_MEMORY, else KGP_SOLVED. */
int kgp_residual(const struct kgp_model *m, double omega, const double *c, double *res)
{
    const ptrdiff_t n = m->n;
    double *row = malloc((2 * n + 3 + n * n + 3 * n) * sizeof(double));
    if (!row)
        return KGP_NO_MEMORY;
    double *coupling = row + 2 * n + 3;
    int status = frequency_row(m, omega, row, coupling);
    if (status != KGP_OUT_OF_BAND) {
        residual(m, coupling, 2.0 * row[1], c, res, coupling + n * n);
        status = KGP_SOLVED;
    }
    free(row);
    return status;
}

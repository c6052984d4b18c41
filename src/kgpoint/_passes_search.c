/* The pinned profile's sampler, of the solitary waves and of each harmonic of the counterexamples, and the manifold
 * distance's frequency scan and its search for the wave closest to a state.
 *
 * The sampler keeps the bits of numpy's complex arithmetic with libm's exp
 * (tests/test_solitary.py::reference_profile), and the scan and the search
 * those of tests/test_manifold.py::reference_dist_to_manifold, whose Brent
 * constants (at brent) are this file's.
 */
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

#include "_passes.h"

/* The pinned profile phi = sum_J C_J g(|x - X_J|) of model m at the len points x, into the complex out: g(r) =
 * exp(-rate r), or sin(rate r) if sine; an amplitude of c (Re and Im interleaved) at each oscillator's position, each
 * term numpy's complex product of C_J by the float e = g(|x - X_J|), (Re C e - Im C 0.0, Re C 0.0 + Im C e), added
 * into phi from 0.0 one oscillator after another; exp and sin are libm's, whatever numpy's SIMD dispatch would have
 * picked.  Inlined into kgp_profile and kgp_wave, so that kgp_wave calls no export through the library's PLT. */
ALWAYS_INLINE void profile(const struct kgp_model *m, const double *x, ptrdiff_t len, double rate, const double *c,
                           int sine, double *out)
{
    for (ptrdiff_t i = 0; i < len; i++) {
        double re = 0.0, im = 0.0;
        for (ptrdiff_t j = 0; j < m->n; j++) {
            const double r = fabs(x[i] - m->positions[j]), e = sine ? sin(rate * r) : exp(-rate * r);
            re = re + (c[2 * j] * e - c[2 * j + 1] * 0.0);
            im = im + (c[2 * j] * 0.0 + c[2 * j + 1] * e);
        }
        out[2 * i] = re;
        out[2 * i + 1] = im;
    }
}

void kgp_profile(const struct kgp_model *m, const double *x, ptrdiff_t len, double rate, const double *c, int sine,
                 double *out)
{
    if (sine) /* a loop for each g, with no test in it */
        profile(m, x, len, rate, c, 1, out);
    else
        profile(m, x, len, rate, c, 0, out);
}

/* A wave's state (p, q) = (psi, pi) of model m at the len points x: psi = phi phase, 0 at the points first and last
 * (-1 for none), and pi = s psi, s = -1j omega as CPython 3.10-3.12 form it, (-0.0 omega - -1.0 0.0,
 * -0.0 0.0 + -1.0 omega); each product numpy's complex one, (ar br - ai bi, ar bi + ai br), with a the
 * left operand. */
void kgp_wave(const struct kgp_model *m, const double *x, ptrdiff_t len, double kappa, const double *c, double omega,
              double phase_re, double phase_im, ptrdiff_t first, ptrdiff_t last, double *p, double *q)
{
    profile(m, x, len, kappa, c, 0, p);
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

/* x = exp(x) at each of the len floats, libm's exp */
void kgp_exp(double *x, ptrdiff_t len)
{
    for (ptrdiff_t i = 0; i < len; i++)
        x[i] = exp(x[i]);
}

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
        if (solve_point(m, omegas[i], starts + (warm ? 0 : w), s->nstarts + warm, row, coupling, coupling + n * n) !=
            KGP_SOLVED)
            continue;
        kgp_wave(m, s->x, s->nodes, row[1], row + 2, row[0], 1.0, 0.0, s->first, s->last, sample,
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

/* The frequencies solved so far and their amplitudes, a dict in insertion order: entry i is a key and its w
 * floats, with room for room entries; and the room of the list of the refinement's solves. */
struct solved {
    double *entries;
    ptrdiff_t size, w, room, refining;
};

/* Room for one more refinement solve, in r's list of their frequencies and among sv's keys: KGP_SOLVED, or
 * KGP_NO_MEMORY */
static int make_room(struct kgp_nearest *r, struct solved *sv)
{
    const int status = grow(&r->refined, &sv->refining, r->solved, 1);
    return status != KGP_SOLVED ? status : grow(&sv->entries, &sv->room, sv->size, 1 + sv->w);
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
static int refine(const struct metric_view *m, struct kgp_nearest *r, struct solved *sv, double u, double *row,
                  double *coupling, double *work, double *sample, double *fu)
{
    const struct kgp_scan *s = m->s;
    const ptrdiff_t w = 2 * s->model->n;
    int status = make_room(r, sv);
    if (status != KGP_SOLVED)
        return status;
    r->refined[r->solved++] = u;
    status = solve_point(s->model, u, solved_nearest(sv, u), 1, row, coupling, work);
    if (status != KGP_SOLVED)
        return status;
    solved_put(sv, u, row + 2);
    kgp_wave(s->model, s->x, s->nodes, row[1], row + 2, u, 1.0, 0.0, s->first, s->last, sample,
             sample + 2 * s->nodes);
    *fu = fit_dist(m, sample, sample + 2 * s->nodes);
    if (*fu < r->dist) {
        r->dist = *fu;
        r->best = s->count;
        memcpy(r->row, row, (w + 3) * sizeof(double));
    }
    return KGP_SOLVED;
}

/* Brent's minimization of the distance over [a, b] from x, at distance fx, until x is within 2 tol of both
 * ends, each evaluation a refine; tests/test_manifold.py::reference_brent_minimize operation for operation.  Each
 * step fits a parabola through the three best points so far and takes its vertex, or, where the parabola
 * is not trusted, a golden-section step into the larger part of the bracket (R. P. Brent, Algorithms for
 * Minimization without Derivatives, 1973, ch. 5; tol gains sqrt(eps)|x| at each step against roundoff).  The
 * golden-section step is 1 - invphi of the larger part, invphi = (sqrt 5 - 1) / 2, and tol is invphi^24 of the
 * bracket, the resolution of 24 golden-section steps.  A failed or collapsed solve ends the search as its
 * convergence does, with KGP_SOLVED. */
static int brent(const struct metric_view *m, struct kgp_nearest *r, struct solved *sv, double a, double b, double x,
                 double fx, double *row, double *coupling, double *work, double *sample)
{
    const double invphi = (sqrt(5.0) - 1.0) / 2.0, golden = 1.0 - invphi, sqrt_eps = sqrt(DBL_EPSILON);
    const double tol = (b - a) * libm_pow(invphi, 24.0);
    double v = x, w = x, fv = fx, fw = fx, d = 0.0, e = 0.0;
    for (;;) {
        const double mid = 0.5 * (a + b);
        const double tol1 = sqrt_eps * fabs(x) + tol / 3.0;
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
            d = golden * e;
        }
        const double u = x + (fabs(d) >= tol1 ? d : copysign(tol1, d));
        double fu;
        const int status = refine(m, r, sv, u, row, coupling, work, sample, &fu);
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

/* The wave closest to the state (p, q) on scan s's nodes among the zero wave, s's waves and a refinement between
 * the best scan wave's solved neighbours, into r, with scratch of the call's own: reference_dist_to_manifold after
 * its scan, operation for operation.  The zero wave's distance comes first, then each scan wave's in order, a
 * strictly smaller one the best; where a scan wave is best and more than one frequency was solved, brent searches
 * the bracket of the solved frequencies on either side of the best (the best's own where it has none).  Returns
 * KGP_SOLVED, or KGP_NO_MEMORY with r->refined NULL. */
int kgp_nearest(const struct kgp_scan *s, const double *p, const double *q, struct kgp_nearest *r)
{
    const ptrdiff_t n = s->model->n, w = 2 * n, cols = w + 3;
    double *block = malloc((cols + n * n + newton_work(n) + 8 * s->nodes) * sizeof(double));
    struct solved sv = {malloc((s->count + ROOM) * (1 + w) * sizeof(double)), 0, w, s->count + ROOM, ROOM};
    r->refined = malloc(ROOM * sizeof(double));
    r->solved = 0;
    int status = block && sv.entries && r->refined ? KGP_SOLVED : KGP_NO_MEMORY;
    if (status != KGP_SOLVED)
        goto done;
    double *row = block, *coupling = row + cols, *work = coupling + n * n, *sample = work + newton_work(n);
    const struct metric_view m = {s, p, q, sample + 4 * s->nodes, sample + 6 * s->nodes};
    r->dist = metric_sum(s, p, q);
    r->best = -1;
    for (ptrdiff_t i = 0; i < s->count; i++) {
        const double *scanned = s->rows + i * cols, *wave = s->samples + 4 * s->nodes * i;
        solved_put(&sv, scanned[0], scanned + 2);
        const double dist = fit_dist(&m, wave, wave + 2 * s->nodes);
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
        status = brent(&m, r, &sv, lo, hi, x, r->dist, row, coupling, work, sample);
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

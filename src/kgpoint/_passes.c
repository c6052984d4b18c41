/* The field passes of the kick-drift-kick step, on float64 views of the complex buffers.
 *
 * n counts floats; stencil neighbours sit 2 floats apart.  Each expression
 * is numpy's, operation for operation and operand for operand, and the build
 * fuses and reassociates nothing (-ffp-contract=off, no -ffast-math), so the
 * results are numpy's bit for bit.  The oscillator nodes' forces are added to
 * kick in Python, between calls.
 */
#include <stddef.h>

/* kick = ((psi[+1] - c psi) + psi[-1]) scale at every node but the two end nodes */
void kgp_stencil(const double *restrict p, double *restrict k, ptrdiff_t n, double c, double scale)
{
    for (ptrdiff_t j = 2; j < n - 2; j++)
        k[j] = ((p[j + 2] - p[j] * c) + p[j - 2]) * scale;
}

/* pi += kick */
void kgp_kick(double *restrict q, const double *restrict k, ptrdiff_t n)
{
    for (ptrdiff_t j = 0; j < n; j++)
        q[j] = q[j] + k[j];
}

/* pi += kick, twice if a deferred half kick is pending; psi += pi dt; then the stencil */
void kgp_step(double *restrict p, double *restrict q, double *restrict k, ptrdiff_t n,
              double dt, double c, double scale, int kicks)
{
    for (ptrdiff_t j = 0; j < n; j++) {
        double v = q[j] + k[j];
        if (kicks == 2)
            v = v + k[j];
        q[j] = v;
        p[j] = p[j] + v * dt;
    }
    kgp_stencil(p, k, n, c, scale);
}

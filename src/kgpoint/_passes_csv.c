/* The CSV text of float64 rows: Python's '%.17g' of each value, computed with integers from a table of powers
 * of ten, at kgp_format_rows.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

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

/* The hot loops of an ensemble: classical RK4 steps of the scaled Lorenz flow
 * and steps of the Henon map for a whole block of samples of n orbits, each
 * call also adding every row it writes into an ensemble chunk's moment, peak
 * and power sums and copying the kept rows into its settling subsample, and
 * a chunk's backward settling scan; and the text of a trajectory, its rows
 * printed as %.17g.
 *
 * Every product and sum below is one IEEE double operation in the order of
 * the numpy code it replaces (the textbook steps of chaoswpt.dynamics.rk4_step
 * and henon_step, chaoswpt.montecarlo._block_moments and _quiet_counts), so
 * built without contraction (-ffp-contract=off) and without -ffast-math the
 * results equal numpy's bit for bit.  Each loop runs across orbits, which are
 * independent, so the compiler vectorises it without reordering any orbit's
 * arithmetic: every vector width gives the same bits as the scalar loop.  The
 * text is the bytes of Python's '%.17g' % v, the fallback of
 * chaoswpt.io_utils.trajectory_csv.
 *
 * On x86-64 with glibc each exported loop is cloned for AVX-512, AVX2 and
 * the baseline ISA, and the loader picks the clone the CPU runs (an ifunc).
 * Other targets, and compilers without target_clones, build the plain loop.
 */

#include <limits.h> /* any C library header defines __GLIBC__ on glibc */
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* -DSIMD_CLONES= builds the plain loop alone, for the one ISA of the -m flags */
#ifndef SIMD_CLONES
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define SIMD_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#endif
#ifndef SIMD_CLONES
#define SIMD_CLONES
#endif

#define RATES(X, Y, Z, DX, DY, DZ)              \
    do {                                        \
        DX = sigma * (ryx * (Y) - (X));         \
        DY = rxy * (X) * (r - ez * (Z)) - (Y);  \
        DZ = rxyz * (X) * (Y) - beta * (Z);     \
    } while (0)

/* A sample v is bad when it lies beyond bound or is not finite: NaN fails
 * both comparisons, and the caller clamps an infinite bound to the largest
 * double, so that inf is bad too.  The test has no branch, so the loops that
 * fold it into a flag still vectorise. */
#define BAD(v) (!((v) <= bound) | !(-bound <= (v)))

/* One RK4 step of n orbits: `in` and `out` each point at a C-contiguous
 * (3, n) row of doubles, x, y and z; they do not overlap.  `rates` holds dt,
 * then the rate constants of chaoswpt.dynamics.rate_constants: sigma, r,
 * beta, ryx, rxy, ez, rxyz.  Returns whether any sample written is bad. */
static inline __attribute__((always_inline)) int
lorenz_row(const double *restrict in, double *restrict out, size_t n, const double *restrict rates,
           double bound)
{
    const double dt = rates[0], sigma = rates[1], r = rates[2], beta = rates[3],
                 ryx = rates[4], rxy = rates[5], ez = rates[6], rxyz = rates[7];
    const double h = 0.5 * dt, w = dt / 6.0;
    int bad = 0;
    for (size_t i = 0; i < n; i++) {
        const double x = in[i], y = in[n + i], z = in[2 * n + i];
        double ax, ay, az, kx, ky, kz, sx, sy, sz;
        /* a accumulates k1 + 2 k2 + 2 k3 + k4 in that order */
        RATES(x, y, z, ax, ay, az);
        sx = x + h * ax; sy = y + h * ay; sz = z + h * az;
        RATES(sx, sy, sz, kx, ky, kz);
        sx = x + h * kx; sy = y + h * ky; sz = z + h * kz;
        ax = ax + 2.0 * kx; ay = ay + 2.0 * ky; az = az + 2.0 * kz;
        RATES(sx, sy, sz, kx, ky, kz);
        sx = x + dt * kx; sy = y + dt * ky; sz = z + dt * kz;
        ax = ax + 2.0 * kx; ay = ay + 2.0 * ky; az = az + 2.0 * kz;
        RATES(sx, sy, sz, kx, ky, kz);
        ax = ax + kx; ay = ay + ky; az = az + kz;
        const double nx = x + w * ax, ny = y + w * ay, nz = z + w * az;
        out[i] = nx;
        out[n + i] = ny;
        out[2 * n + i] = nz;
        bad |= BAD(nx) | BAD(ny) | BAD(nz);
    }
    return bad;
}

/* One step of the map for n orbits: `in` and `out` each point at a
 * C-contiguous (2, n) row of doubles, x and y; they do not overlap.
 * `params` holds gamma and delta.  Returns whether any sample written is
 * bad. */
static inline __attribute__((always_inline)) int
henon_row(const double *restrict in, double *restrict out, size_t n, const double *restrict params,
          double bound)
{
    const double gamma = params[0], delta = params[1];
    int bad = 0;
    for (size_t i = 0; i < n; i++) {
        const double x = in[i], y = in[n + i];
        const double nx = (y + 1.0) - (gamma * x) * x, ny = delta * x;
        out[i] = nx;
        out[n + i] = ny;
        bad |= BAD(nx) | BAD(ny);
    }
    return bad;
}

/* A chunk's tally, which every block call of an ensemble adds its samples
 * into, as chaoswpt.montecarlo packs it once per chunk.  `acc` is a
 * C-contiguous (4, n) array of the sums s2, s4 and psum and the peak pmax.
 * Sample s goes into psum and pmax from s = papr on, into s2 and s4 as well
 * from s = cutoff on, and every stride-th sample, its whole (dim, n) row,
 * into row s / stride of `det`, the chunk's settling subsample.  The power
 * window opens first: papr <= cutoff. */
struct tally {
    size_t cutoff, papr, stride;
    double *acc, *det;
};

/* Adds the first component x of a sample row of n orbits into `acc`: its
 * square v into psum and the peak into pmax, and where `moments` v into s2
 * and v * v into s4.  The rows are added in step order, as a per-step
 * `total += row` adds them.  Inlined with a constant flag, the test leaves
 * the orbit loop.  An orbit that left the bound may add inf or NaN; its
 * sums are discarded, so the peak of the rest is order-free. */
static inline __attribute__((always_inline)) void
add_row(const double *restrict x, size_t n, int moments, double *restrict acc)
{
    for (size_t i = 0; i < n; i++) {
        const double v = x[i] * x[i];
        if (moments) {
            acc[i] = acc[i] + v;
            acc[n + i] = acc[n + i] + v * v;
        }
        acc[2 * n + i] = acc[2 * n + i] + v;
        acc[3 * n + i] = v > acc[3 * n + i] ? v : acc[3 * n + i];
    }
}

/* `rows` steps of n orbits of the system of dimension `dim` (3 the flow, 2
 * the map; a constant dim picks the step when inlined) into `out`, a
 * C-contiguous (rows, dim, n) block of doubles: row 0 is the step of `src`,
 * a (dim, n) row, and row k the step of row k - 1.  `src` may be the block's
 * last row, which only the last step writes.  Row k is sample k0 + k, which
 * goes into the tally `t` right after its step, while it is in cache; a null
 * `t` (one orbit) tallies nothing.  A row in the power window alone and a
 * row in both each have an add_row loop of their own, so that no window test
 * sits in an orbit loop.  Returns whether any sample written is beyond
 * `bound` or not finite. */
static inline __attribute__((always_inline)) int
tallied_rows(size_t dim, const double *src, double *out, size_t rows, size_t n,
             const double *restrict consts, double bound, size_t k0, const struct tally *t)
{
    /* with no tally, no sample is in a window and none is kept */
    const size_t cutoff = t ? t->cutoff : SIZE_MAX, papr = t ? t->papr : SIZE_MAX;
    double *restrict acc = t ? t->acc : NULL;
    /* rows until the next kept sample, and the subsample row it goes to */
    size_t wait = t ? (t->stride - k0 % t->stride) % t->stride : SIZE_MAX;
    double *det = t ? t->det + (k0 + wait) / t->stride * dim * n : NULL;
    int bad = 0;
    for (size_t k = 0; k < rows; k++, src = out, out += dim * n) {
        bad |= dim == 3 ? lorenz_row(src, out, n, consts, bound) : henon_row(src, out, n, consts, bound);
        if (k0 + k >= cutoff)
            add_row(out, n, 1, acc);
        else if (k0 + k >= papr)
            add_row(out, n, 0, acc);
        if (wait-- == 0) {
            memcpy(det, out, dim * n * sizeof *out);
            det += dim * n;
            wait = t->stride - 1;
        }
    }
    return bad;
}

/* `rows` RK4 steps of the scaled Lorenz flow for n orbits into `out`, a
 * (rows, 3, n) block, as tallied_rows says; `rates` as lorenz_row takes it. */
SIMD_CLONES
int chaoswpt_lorenz_rk4_rows(const double *src, double *out, size_t rows, size_t n,
                             const double *restrict rates, double bound, size_t k0, const struct tally *t)
{
    return tallied_rows(3, src, out, rows, n, rates, bound, k0, t);
}

/* `rows` steps of the Henon map for n orbits into `out`, a (rows, 2, n)
 * block, as tallied_rows says; `params` holds gamma and delta. */
SIMD_CLONES
int chaoswpt_henon_rows(const double *src, double *out, size_t rows, size_t n,
                        const double *restrict params, double bound, size_t k0, const struct tally *t)
{
    return tallied_rows(2, src, out, rows, n, params, bound, k0, t);
}

/* One row of the settling scan: fold row `x` of a (dim, n) sample into the
 * running max `hi` and min `lo`, and add 1 to the count of each orbit whose
 * every component now spans at most tol.  A NaN sample makes hi and lo NaN
 * for good, as np.maximum and np.minimum do, and NaN spans are never quiet.
 * Returns whether any orbit was quiet.  Inlined with a constant dim, 2 or 3,
 * the component loop unrolls and the orbit loop vectorises. */
static inline __attribute__((always_inline)) int
quiet_row(const double *restrict x, size_t dim, size_t n, double tol, double *restrict hi,
          double *restrict lo, ptrdiff_t *restrict count)
{
    int any = 0;
    for (size_t j = 0; j < n; j++) {
        int quiet = 1;
        for (size_t c = 0; c < dim; c++) {
            const double v = x[c * n + j], h = hi[c * n + j], l = lo[c * n + j];
            const double nh = (v > h || v != v) ? v : h, nl = (v < l || v != v) ? v : l;
            hi[c * n + j] = nh;
            lo[c * n + j] = nl;
            quiet &= nh - nl <= tol;
        }
        count[j] += quiet;
        any |= quiet;
    }
    return any;
}

/* `det` points at a C-contiguous (rows, dim, n) array of doubles: a chunk's
 * settling subsample, one column per orbit.  Scanning its rows backwards,
 * `count` (n entries) receives the number of rows each orbit stays quiet
 * from the end: every component's running max minus min at most tol.  An
 * orbit's span only grows as the scan goes back, so once it is not quiet it
 * never is again, and the scan stops at the first row where no orbit is
 * quiet.  `dim` is 2 (the map) or 3 (the flow): any other is read as 3.
 * `work` holds 2 * dim * n doubles for the running max and min. */
SIMD_CLONES
void chaoswpt_quiet_rows(const double *restrict det, size_t rows, size_t dim, size_t n, double tol,
                         double *restrict work, ptrdiff_t *restrict count)
{
    double *restrict hi = work, *restrict lo = work + dim * n;
    const double *last = det + (rows - 1) * dim * n;
    for (size_t k = 0; k < dim * n; k++) {
        hi[k] = last[k];
        lo[k] = last[k];
    }
    for (size_t j = 0; j < n; j++)
        count[j] = 0;
    for (size_t r = rows; r-- > 0;) {
        const double *x = det + r * dim * n;
        if (!(dim == 2 ? quiet_row(x, 2, n, tol, hi, lo, count) : quiet_row(x, 3, n, tol, hi, lo, count)))
            break;
    }
}

#ifdef __SIZEOF_INT128__
/* The 17 significant digits of a finite v with 1e-5 <= |v| < 1e16, and the
 * decimal exponent x of the first: |v| rounds, half to even, to
 * digits * 10^(x - 16).  Exact, as in Steele and White's and Adams's printers
 * at a fixed digit count: |v| = m 2^e, and m 10^(16 - x) < 2^123 is held
 * whole, so the shift right by -e <= 69 leaves the exact remainder to round
 * on. */
static uint64_t digits17(double v, int *x)
{
    static const uint64_t pow10[] = {
        1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull, 1000000ull, 10000000ull, 100000000ull,
        1000000000ull, 10000000000ull, 100000000000ull, 1000000000000ull, 10000000000000ull,
        100000000000000ull, 1000000000000000ull, 10000000000000000ull, 100000000000000000ull,
        1000000000000000000ull, 10000000000000000000ull};
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    /* v is normal in this range */
    const uint64_t m = (bits & 0xfffffffffffffull) | 1ull << 52;
    const int e = (int)(bits >> 52 & 0x7ff) - 1075;
    /* |v| lies in [2^(e + 52), 2^(e + 53)); this is log10 of the lower end,
     * truncated toward zero, so within one of floor(log10 |v|) */
    int k = (e + 52) * 1233 / 4096;
    unsigned __int128 n;
    uint64_t d;
    for (;;) {
        /* q = 16 - k lies in [1, 21]: |v| < 1e16, and 1e-5 <= |v| */
        const int q = 16 - k;
        n = (unsigned __int128)m * pow10[q < 19 ? q : 19];
        if (q > 19)
            n *= pow10[q - 19];
        d = (uint64_t)(e < 0 ? n >> -e : n << e);
        if (d < pow10[16])
            k--;
        else if (d >= pow10[17])
            k++;
        else
            break;
    }
    if (e < 0) {
        const unsigned __int128 rem = n & (((unsigned __int128)1 << -e) - 1),
                                half = (unsigned __int128)1 << (-e - 1);
        d += rem > half || (rem == half && (d & 1));
        /* a carry to 10^17 may be out of reach at 17 digits; it costs one compare */
        if (d == pow10[17]) {
            d = pow10[16];
            k++;
        }
    }
    *x = k;
    return d;
}
#endif

/* Writes v as '%.17g' % v prints it, at most 24 bytes (the length of
 * -2.2250738585072014e-308) and no NUL, and returns the end.  It may write
 * scratch bytes up to p + 24 past a shorter text. */
static char *put_g17(char *p, double v)
{
#ifdef __SIZEOF_INT128__
    const double a = v < 0 ? -v : v;
    if (a >= 1e-5 && a < 1e16) {
        int x;
        uint64_t d = digits17(v, &x);
        static const char pairs[] = "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
                                    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
                                    "8081828384858687888990919293949596979899";
        /* two digits at a time, from each 32-bit half of d */
        char dig[33]; /* the 17 digits, then scratch that a fixed-size copy may read */
        uint32_t head = (uint32_t)(d / 100000000), tail = (uint32_t)(d % 100000000);
        for (int i = 15; i > 8; i -= 2, tail /= 100)
            memcpy(dig + i, pairs + 2 * (tail % 100), 2);
        for (int i = 7; i > 0; i -= 2, head /= 100)
            memcpy(dig + i, pairs + 2 * (head % 100), 2);
        dig[0] = (char)('0' + head);
        int nd = 17; /* the digits left once trailing zeros go */
        while (dig[nd - 1] == '0')
            nd--;
        /* the text, at most 23 bytes, is built in t by copies of fixed
         * size, which may write past its end */
        char t[48], *s = t;
        *s = '-';
        s += v < 0;
        if (x < -4) {
            /* d.ddde-05: the one exponent below -4 in this range */
            s[0] = dig[0];
            s[1] = '.';
            memcpy(s + 2, dig + 1, 16);
            s += nd > 1 ? nd + 1 : 1;
            memcpy(s, "e-05", 4);
            s += 4;
        } else if (x < 0) {
            memcpy(s, "0.000", 5);
            memcpy(s + 1 - x, dig, 17);
            s += 1 - x + nd;
        } else {
            /* the integer part, with any zeros it ends in, then the fraction */
            memcpy(s, dig, 17);
            s[x + 1] = '.';
            memcpy(s + x + 2, dig + x + 1, 16);
            s += nd > x + 1 ? nd + 1 : x + 1;
        }
        memcpy(p, t, 24);
        return p + (s - t);
    }
#endif
    /* glibc prints a NaN whose sign bit is set as -nan, Python as nan */
    if (v != v) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    char text[32];
    const int len = snprintf(text, sizeof text, "%.17g", v);
    memcpy(p, text, len);
    return p + len;
}

/* The text of `rows` rows of a trajectory into `out`, each the row's first
 * column, then its `dim` samples from the C-contiguous (rows, dim) `samples`,
 * separated by commas and ended by a newline.  The first column of row k is
 * (double)k * dt, the product np.arange(rows) * dt holds; a map passes
 * dt = 1, and '%.17g' prints each index below 10^17 as '%d' does.  Every
 * value is printed as '%.17g' % v, and writes no more than 24 bytes from
 * where its text starts, so `out` needs (dim + 1) * 25 bytes a row.  Returns
 * the bytes of text written.  Not cloned: the loop does not vectorise. */
size_t chaoswpt_format_rows(const double *restrict samples, size_t rows, size_t dim, double dt,
                            char *restrict out)
{
    char *p = out;
    for (size_t k = 0; k < rows; k++) {
        p = put_g17(p, (double)k * dt);
        for (size_t c = 0; c < dim; c++) {
            *p++ = ',';
            p = put_g17(p, samples[k * dim + c]);
        }
        *p++ = '\n';
    }
    return (size_t)(p - out);
}

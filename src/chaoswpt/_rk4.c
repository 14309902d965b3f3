/* The hot loops of an ensemble: one classical RK4 step of the scaled Lorenz
 * flow and one step of the Henon map for a block row of orbits, one block's
 * moment, peak and power sums, and a chunk's backward settling scan.
 *
 * Every product and sum below is one IEEE double operation in the order of
 * the numpy code it replaces (chaoswpt.dynamics.rk4_step and henon_step,
 * chaoswpt.montecarlo._block_moments and _quiet_counts), so built without
 * contraction (-ffp-contract=off) and without -ffast-math the results equal
 * numpy's bit for bit.  Each loop runs across orbits, which are independent,
 * so the compiler vectorises it without reordering any orbit's arithmetic:
 * every vector width gives the same bits as the scalar loop.
 *
 * On x86-64 with glibc each function is cloned for AVX-512, AVX2 and the
 * baseline ISA, and the loader picks the clone the CPU runs (an ifunc).
 * Other targets, and compilers without target_clones, build the plain loop.
 */

#include <limits.h> /* any C library header defines __GLIBC__ on glibc */
#include <stddef.h>

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

/* `in` and `out` each point at a C-contiguous (3, n) row of doubles: x, y and
 * z of n orbits; they do not overlap.  `rates` holds dt, then the rate
 * constants of chaoswpt.dynamics.rate_constants: sigma, r, beta, ryx, rxy,
 * ez, rxyz. */
SIMD_CLONES
void chaoswpt_lorenz_rk4(const double *restrict in, double *restrict out, size_t n,
                         const double *restrict rates)
{
    const double dt = rates[0], sigma = rates[1], r = rates[2], beta = rates[3],
                 ryx = rates[4], rxy = rates[5], ez = rates[6], rxyz = rates[7];
    const double h = 0.5 * dt, w = dt / 6.0;
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
        out[i] = x + w * ax;
        out[n + i] = y + w * ay;
        out[2 * n + i] = z + w * az;
    }
}

/* `x` points at the first component of `rows` samples of n orbits, one
 * sample row every `stride` doubles.  `acc` is a C-contiguous (4, n) array:
 * the sums s2, s4 and psum and the peak pmax.  From row c on, x^2 is added
 * into s2 and x^2 * x^2 into s4; from row p on, x^2 is added into psum and
 * raises pmax.  The rows are added in order, as a per-step `total += row`
 * adds them.  The samples hold no NaN, so the peak is order-free. */
SIMD_CLONES
void chaoswpt_block_moments(const double *restrict x, size_t rows, size_t stride, size_t n,
                            size_t c, size_t p, double *restrict acc)
{
    double *restrict s2 = acc, *restrict s4 = acc + n, *restrict psum = acc + 2 * n,
           *restrict pmax = acc + 3 * n;
    for (size_t i = c < p ? c : p; i < rows; i++) {
        const double *restrict row = x + i * stride;
        if (i >= c) {
            for (size_t j = 0; j < n; j++) {
                const double v = row[j] * row[j];
                s2[j] = s2[j] + v;
                s4[j] = s4[j] + v * v;
            }
        }
        if (i >= p) {
            for (size_t j = 0; j < n; j++) {
                const double v = row[j] * row[j];
                psum[j] = psum[j] + v;
                pmax[j] = v > pmax[j] ? v : pmax[j];
            }
        }
    }
}

/* `in` and `out` each point at a C-contiguous (2, n) row of doubles: x and y
 * of n orbits; they do not overlap.  `params` holds gamma and delta. */
SIMD_CLONES
void chaoswpt_henon(const double *restrict in, double *restrict out, size_t n,
                    const double *restrict params)
{
    const double gamma = params[0], delta = params[1];
    for (size_t i = 0; i < n; i++) {
        const double x = in[i], y = in[n + i];
        out[i] = (y + 1.0) - (gamma * x) * x;
        out[n + i] = delta * x;
    }
}

/* One row of the settling scan: fold row `x` of a (dim, n) sample into the
 * running max `hi` and min `lo`, and add 1 to the count of each orbit whose
 * every component now spans at most tol.  A NaN sample makes hi and lo NaN
 * for good, as np.maximum and np.minimum do, and NaN spans are never quiet.
 * Returns whether any orbit was quiet.  Inlined with a constant dim, the
 * component loop unrolls and the orbit loop vectorises. */
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
 * quiet.  `work` holds 2 * dim * n doubles for the running max and min. */
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
        int any;
        if (dim == 2)
            any = quiet_row(x, 2, n, tol, hi, lo, count);
        else if (dim == 3)
            any = quiet_row(x, 3, n, tol, hi, lo, count);
        else
            any = quiet_row(x, dim, n, tol, hi, lo, count);
        if (!any)
            break;
    }
}

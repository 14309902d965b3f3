/* One classical RK4 step of the scaled Lorenz flow for a block row of orbits.
 *
 * `in` and `out` each point at a C-contiguous (3, n) row of doubles: x, y and
 * z of n orbits.  The arithmetic and its order are those of
 * chaoswpt.dynamics.rk4_step: every product and sum below is one IEEE double
 * operation, so built without contraction (-ffp-contract=off) and without
 * -ffast-math the result equals numpy's bit for bit.  Each orbit's state is
 * read before its new state is written.
 */

#include <stddef.h>

#define RATES(X, Y, Z, DX, DY, DZ)              \
    do {                                        \
        DX = sigma * (ryx * (Y) - (X));         \
        DY = rxy * (X) * (r - ez * (Z)) - (Y);  \
        DZ = rxyz * (X) * (Y) - beta * (Z);     \
    } while (0)

void chaoswpt_lorenz_rk4(const double *in, double *out, size_t n, double dt,
                         double sigma, double r, double beta, double ryx,
                         double rxy, double ez, double rxyz)
{
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

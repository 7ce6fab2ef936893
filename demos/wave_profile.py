"""Solve the travelling-wave profile for the bistable lattice equation.

Solves the profile equation c phi'(xi) = phi(xi+1) + phi(xi-1) - 2 phi(xi)
+ g(phi(xi)) by collocation and Newton iteration, then derives the adjoint
eigenfunction, the Melnikov-type coefficient d, the directional corrector r,
and the direction-dependent speed c(theta).
"""

import numpy as np

from acfront import (BistableNonlinearity, adjoint_solve, c_theta, compute_d,
                     dispersion, mfde_residual, save_wave, solve_r, solve_wave)


def main():
    f = BistableNonlinearity(a=0.3)
    w = solve_wave(f)
    res = mfde_residual(w)
    print(f"a = {w.a}")
    print(f"wave speed c = {w.c:.15f}")
    print(f"sup MFDE residual = {np.max(np.abs(res)):.3e}")
    print(f"tail decay rates rho = ({w.rho[0]:.6f}, {w.rho[1]:.6f})")
    print(f"monotone: {bool(np.all(np.diff(w.phi) > 0))}")

    w.psi = adjoint_solve(w)
    w.d = compute_d(w)
    w.r = solve_r(w)
    print(f"coefficient d = {w.d:.12f}")
    print(f"corrector sup-norm = {np.max(np.abs(w.r)):.4f}")

    # Directional speed and the expansion c(theta) ~ c + d theta^2 / 2.
    print("\n theta     c(theta)       D(theta)")
    for theta in (0.0, 0.05, 0.1, 0.2):
        print(f"{theta:6.2f}  {c_theta(w, theta):+.9f}  {dispersion(w, theta):+.9f}")
    # d satisfies d = c/2 + (1/2) d^2c/dtheta^2 at theta = 0.
    eps = 0.1
    cpp = (c_theta(w, eps) + c_theta(w, -eps) - 2.0 * w.c) / eps ** 2
    d_fd = 0.5 * w.c + 0.5 * cpp
    print(f"\nidentity d = c/2 + c''(0)/2 at eps={eps}: {d_fd:+.9f} "
          f"(rel err {abs(d_fd - w.d) / abs(w.d):.2e})")

    save_wave(w, "wave_a0.3.ndjson")
    print("saved profile to wave_a0.3.ndjson")


if __name__ == "__main__":
    main()

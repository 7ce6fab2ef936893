"""Discrete heat kernel: Bessel evaluation, structural bounds, decay rates.

The kernel of the 1D lattice heat semigroup is G_k(t) = e^{-2t} I_k(2t) with
I_k the modified Bessel function. The scaled ladder comes from Miller's
backward recurrence for the ratios I_k / I_{k-1}, normalised so that the
kernel's mass is 1 by construction. Front-like
initial data then shows the |d+ h|_inf ~ t^{-1/2} and |d2 h|_inf ~ t^{-1}
decay rates.
"""

import numpy as np

from acfront.core import PhaseSequence
from acfront.flow import bessel_bounds_report, decay_report, heat_kernel, heat_solve
from acfront.harness import splitmix64_uniform

table = heat_kernel(5.0)
print(f"kernel at t=5: kmax = {table.kmax}, mass - 1 = {table.mass() - 1.0:.3e}")

rep = bessel_bounds_report([1.0, 5.0, 20.0, 100.0])
print(f"order-monotone: {rep['all_order_monotone']}, "
      f"telescope error: {rep['max_telescope_error']:.3e}, "
      f"single sign change of d2 G_0: {rep['single_sign_change']}")

# Step data with noise: the interface spreads diffusively, so the gradient
# decays like t^{-1/2} and the second difference like t^{-1}.
n = 2048
vals = np.where(np.arange(n) < n // 2, 0.0, 4.0)
vals += 0.5 * (splitmix64_uniform(2, n) - 0.5)
h0 = PhaseSequence(vals, boundary_j="reflect")

t_grid = np.geomspace(10.0, 1000.0, 13)
rep = decay_report(h0, t_grid)
print(f"\nfitted slope of |d+ h(t)|_inf: {rep['slope_first']:+.4f}  (target -1/2)")
print(f"fitted slope of |d2 h(t)|_inf: {rep['slope_second']:+.4f}  (target -1)")
print(f"monotone sup bound holds: {rep['monotone_bound_holds']}")

h5 = heat_solve(h0, 5.0)
print(f"\nsup |h(5)| = {np.max(np.abs(h5.values)):.4f} "
      f"(initial {np.max(np.abs(h0.values)):.4f}, contraction holds: "
      f"{np.max(np.abs(h5.values)) <= np.max(np.abs(h0.values))})")

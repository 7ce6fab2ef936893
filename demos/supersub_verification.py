"""Certify super/sub-solution pairs for the lattice Allen-Cahn equation.

A super-solution has residual J[u+] = du+/dt - lap u+ - g(u+) >= 0 everywhere,
a sub-solution J[u-] <= 0; by the comparison principle they trap any solution
that starts between them. The planar pair relaxes an additive offset at rate
mu while the shift grows by at most C q; the curved pair rides an exactly
solved phase V_j(t) and pays for curvature with the corrector r and an offset
p(t) that plateaus and then decays like t^{-3/2}.
"""

import numpy as np

from acfront import BistableNonlinearity, solve_r, solve_wave
from acfront.core import PhaseSequence
from acfront.errors import VerificationFailed
from acfront.sim import SimConfig, SuperSubSpec, search_planar_constants, verify_supersub

w = solve_wave(BistableNonlinearity(a=0.3))
solve_r(w)  # fills psi, d and r
cfg = SimConfig(f=w.f)

t_grid = np.linspace(0.0, 50.0, 26)
spec = SuperSubSpec(kind="planar", q0=0.1, q1=0.1)
mu, C, report = search_planar_constants(w, spec, cfg, t_grid)
print(f"planar pair certified: mu = {mu:.6f}, C = {C:.3f}")
print(f"  min J[u+] = {report['min_residual_super']:+.3e} at {report['site_super']}")
print(f"  max J[u-] = {report['max_residual_sub']:+.3e} at {report['site_sub']}")

# The curved construction requires a flat initial phase: the offset p(0)
# must dominate the squared-gradient curvature cost.
j = np.arange(64)
V0 = PhaseSequence(np.sin(2.0 * np.pi * j / 64.0))
curved = SuperSubSpec(kind="curved", V0=V0)
report = verify_supersub(curved, w, cfg, t_grid, width=128)
print(f"\ncurved pair with defaults (M={curved.M}, delta={curved.delta}, "
      f"m={curved.m}, C_eps={curved.C_eps}): {report['verdict']}")
print(f"  min J[u+] = {report['min_residual_super']:+.3e}")
print(f"  max J[u-] = {report['max_residual_sub']:+.3e}")

# Negative control: with no additive offset the initial curvature cost is
# unpaid and the margin precondition must reject the pair.
broken = SuperSubSpec(kind="curved", V0=V0, M=1e-12)
try:
    verify_supersub(broken, w, cfg, t_grid, width=128)
    print("\nnegative control unexpectedly passed")
except VerificationFailed as exc:
    print(f"\nnegative control rejected as expected: {exc}")

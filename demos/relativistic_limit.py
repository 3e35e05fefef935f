"""Relativistic Kepler orbits and their non-relativistic limit.

The special-relativistic kinetic law bends the apsidal angle away from pi,
so bound orbits precess (the relativistic Kepler problem is no longer
super-integrable and becomes non-degenerate).  As the light speed c grows
the radial period and apsidal angle converge to the classical values at
second order in 1/c.

Run:  python3 demos/relativistic_limit.py
"""
import numpy as np

from cforbits import KineticLaw, Potential, cross_check, find_closed_orbit, \
    radial_profile

V = Potential.kepler()
h, L = -0.375, 1.0

classical = radial_profile(KineticLaw.classical(), V, h, L)
print(f"classical: tau = {classical.tau:.9f}  phi = {classical.phi:.9f}")
print()
print(f"{'c':>6} {'tau':>14} {'phi':>12} {'tau err':>11} {'phi err':>11}")
errs = []
cs = [5.0, 10.0, 20.0, 40.0]
for c in cs:
    p = radial_profile(KineticLaw.relativistic(m=1.0, c=c), V, h, L)
    e_tau = abs(p.tau - classical.tau)
    e_phi = abs(p.phi - classical.phi)
    errs.append((e_tau, e_phi))
    print(f"{c:6.0f} {p.tau:14.8f} {p.phi:12.8f} {e_tau:11.3e} {e_phi:11.3e}")

x = np.log(1.0 / np.array(cs))
order_tau = np.polyfit(x, np.log([e for e, _ in errs]), 1)[0]
order_phi = np.polyfit(x, np.log([e for _, e in errs]), 1)[0]
print(f"\nempirical convergence order: tau {order_tau:.3f}, phi {order_phi:.3f}")

# at c = 1 the precession is strong enough to close a 4:3 resonant orbit
law = KineticLaw.relativistic(m=1.0, c=1.0)
orb = find_closed_orbit(law, V, 4, 3, -0.2)
cc = cross_check(orb)
print(f"\nrelativistic 4:3 orbit at h = -0.2: L = {orb.profile.L:.6f}, "
      f"T = {orb.T:.4f}")
print(f"verdicts: fixed-period {cc.fixed_period_verdict}, "
      f"fixed-energy {cc.fixed_energy_verdict} "
      f"(kernel dims {cc.planar_fp.kernel_dim}/{cc.spatial_fp.kernel_dim})")

"""Degeneracy survey of homogeneous central force problems.

Builds one eccentric resonant orbit per homogeneity exponent and prints the
non-degeneracy verdicts of the two independent routes side by side: the
action-variable determinants and the monodromy kernel dimensions.  The
harmonic (alpha = -2) and Kepler (alpha = 1) rows are the classical
super-integrable exceptions; every other exponent comes out non-degenerate.

Run:  python3 demos/degeneracy_table.py
"""
from cforbits import KineticLaw, Potential, cross_check, find_closed_orbit

law = KineticLaw.classical()

cases = [
    ("harmonic  alpha=-2", -2.0, 1, 2, 1.25, 1.0),
    ("linear    alpha=-1", -1.0, 4, 7, 1.0, None),
    ("subkepler alpha=.5", 0.5, 3, 4, -1.5, None),
    ("kepler    alpha=1 ", 1.0, 1, 1, -0.375, 1.0),
    ("steep     alpha=1.5", 1.5, 3, 2, -0.5, None),
]

print(f"{'case':<20} {'k:n':>5} {'ecc':>6} {'fixed-period':>13} "
      f"{'fixed-energy':>13} {'ker 4x4':>8} {'ker 3D':>8} {'|det| scale':>12}")
for name, alpha, k, n, h, L_seed in cases:
    V = Potential.homogeneous(1.0, alpha)
    orb = find_closed_orbit(law, V, k, n, h, L_seed=L_seed)
    cc = cross_check(orb)
    print(f"{name:<20} {k}:{n:<3} {orb.profile.eccentricity:6.3f} "
          f"{cc.fixed_period_verdict:>13} {cc.fixed_energy_verdict:>13} "
          f"{cc.planar_fp.kernel_dim:>8} {cc.spatial_fp.kernel_dim:>8} "
          f"{cc.actions.scale_fixed_period:>12.3e}")

print()
print("kernel dims 2 (planar, of the 4x4 I - P) and 4 (spatial: the planar")
print("kernel plus the two tilts of the orbit plane) are exactly the manifold")
print("of rotated/time-shifted copies; anything larger signals degeneracy.")

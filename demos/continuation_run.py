"""Continuation of a resonant orbit into the electromagnetically
perturbed system.

Starting from the 4:5 resonant orbit of the alpha = 0.5 homogeneous
potential, three perturbations are switched on at eps = 1e-3:

  * a cosine electric field resonant with the orbit (fixed-period shooting),
  * a static electric field (fixed-energy shooting, the period adjusts),
  * a uniform magnetic field on the spatially embedded orbit (fixed-energy).

Each continued solution is certified by an independent closure re-check and
by its sup-distance to the manifold of rotated/time-shifted copies of the
unperturbed orbit.

Run:  python3 demos/continuation_run.py   (about 1 s on a 2-core Xeon)
"""
from cforbits import (
    HamiltonianSystem,
    KineticLaw,
    Perturbation,
    Potential,
    ShootingProblem,
    continue_fixed_energy,
    continue_fixed_period,
    distance_to_manifold,
    find_closed_orbit,
    manifold_samples,
)

law = KineticLaw.classical()
V = Potential.homogeneous(1.0, 0.5)
EPS = 1e-3

orb = find_closed_orbit(law, V, 4, 5, -1.9)
print(f"base orbit: 4:5 resonance, h = {orb.profile.h}, "
      f"L = {orb.profile.L:.6f}, T = {orb.T:.6f}")

# 1. resonant cosine electric forcing, period pinned to T
pert = Perturbation.uniform_electric((1.0, 0.0), EPS, profile="cosine",
                                     T_forcing=orb.T)
sys2 = HamiltonianSystem(law, V, pert, 2)
prob = ShootingProblem(sys=sys2, mode="fixed_period", seed=orb.z0, T=orb.T)
res = continue_fixed_period(prob)
samples = manifold_samples(orb, 8, 8, group="planar")
res = distance_to_manifold(res, samples)
print(f"\nfixed-period / cosine electric: accepted={res.accepted}, "
      f"|R| = {res.residual:.3e}, distance = {res.distance:.3e}")

# 2. static electric field, energy pinned instead of the period
pert = Perturbation.uniform_electric((1.0, 0.0), EPS, profile="constant")
sys2 = HamiltonianSystem(law, V, pert, 2)
prob = ShootingProblem(sys=sys2, mode="fixed_energy", seed=orb.z0, T=orb.T,
                       h=orb.profile.h)
res = continue_fixed_energy(prob)
res = distance_to_manifold(res, samples)
print(f"fixed-energy / static electric: accepted={res.accepted}, "
      f"|R| = {res.residual:.3e}, |H - h| = {res.energy_residual:.3e}, "
      f"T = {res.period:.6f}, distance = {res.distance:.3e}")

# 3. uniform magnetic field needs the spatial embedding
orb3 = find_closed_orbit(law, V, 4, 5, -1.9, dim=3)
pert = Perturbation.uniform_magnetic((0.0, 0.0, 1.0), EPS)
sys3 = HamiltonianSystem(law, V, pert, 3)
prob = ShootingProblem(sys=sys3, mode="fixed_energy", seed=orb3.z0, T=orb3.T,
                       h=orb3.profile.h)
res = continue_fixed_energy(prob)
res = distance_to_manifold(res, manifold_samples(orb3, 6, 4, group="SO3"))
print(f"fixed-energy / uniform magnetic: accepted={res.accepted}, "
      f"|R| = {res.residual:.3e}, |H - h| = {res.energy_residual:.3e}, "
      f"T = {res.period:.6f}, distance = {res.distance:.3e}")

"""Workloads of the cforbits benchmark.

Each workload has a validated input pool, a set-up that draws its inputs from
the seed, and a pass: one closed loop over those inputs through the public
API (or the CLI), in which every call starts after the previous one returned
and every output is checked against a known answer.

The seed draws one entry from each stratum of a pool (``pick``).  Entries of
one stratum cost about the same, so the throughput of a pass depends on the
program rather than on the draw; seed 0 takes the first entry of every
stratum.  The known answers were obtained by running each pool entry through
the toolkit and checking them against the theory the README states (harmonic
and Kepler degenerate, every other case non-degenerate; a homogeneous
potential has the same apsidal range at every energy of one sign).
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import cforbits as cf
import cforbits.cli

# accepted continued solutions must pass these re-checks
RESIDUAL_MAX = 1e-9
ENERGY_RESIDUAL_MAX = 1e-9
DISTANCE_MAX = 0.1


def pick(seed, strata):
    """One entry per stratum, by the digits of ``seed`` in the mixed radix
    of the stratum sizes."""
    out = []
    for stratum in strata:
        seed, i = divmod(seed, len(stratum))
        out.append(stratum[i])
    return out


@dataclass
class Tally:
    """What passes did: completed work units, attempted and failed
    operations, and the failures the pool does not record as known."""

    units: int = 0
    solutions: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)

    def fail(self, what, wrong=True):
        """Count one failed operation; ``wrong`` unless it is a failure the
        pool records as known (a defect of the program today)."""
        self.failed += 1
        if wrong:
            self.wrong.append(what)
        print(f"{'wrong' if wrong else 'failed'}: {what}", file=sys.stderr)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, workdir) -> inputs
    run_pass: Callable  # (inputs, tally) -> None
    active: frozenset  # trace boundaries that must record calls
    rates: tuple  # (name, unit, per-second factor, "units" | "solutions")


# --- nondeg_table ---

def _homogeneous(alpha):
    return {"kind": "homogeneous", "alpha": alpha}


_REL = {"kind": "relativistic", "m": 1.0, "c": 1.0}
_REL_L = math.sqrt(16.0 / 7.0)
_DEGENERATE_HARMONIC = ("degenerate", 4, 6, 3, 5)
_DEGENERATE_KEPLER = ("degenerate", 3, 5, 3, 5)
_NONDEGENERATE = ("nondegenerate", 2, 4, 2, 4)

# (name, law or None, potential, orbit); the anchors are always in the table
HARMONIC = ("harmonic", None, _homogeneous(-2.0), {"k": 1, "n": 2, "h": 1.25, "L": 1.0})
KEPLER = ("kepler", None, _homogeneous(1.0), {"k": 1, "n": 1, "h": -0.375, "L": 1.0})
# one row from each stratum; the first rows with the anchors reproduce
# demos/configs/nondeg_table.json plus the relativistic Kepler row
TABLE_STRATA = (
    (("alpha_m1", None, _homogeneous(-1.0), {"k": 4, "n": 7, "h": 1.0}),
     ("alpha_m1_h08", None, _homogeneous(-1.0), {"k": 4, "n": 7, "h": 0.8})),
    (("alpha_05", None, _homogeneous(0.5), {"k": 3, "n": 4, "h": -1.5}),
     ("alpha_05_h12", None, _homogeneous(0.5), {"k": 3, "n": 4, "h": -1.2}),
     ("alpha_05_h18", None, _homogeneous(0.5), {"k": 3, "n": 4, "h": -1.8})),
    (("alpha_15", None, _homogeneous(1.5), {"k": 3, "n": 2, "h": -0.5}),
     ("alpha_15_h04", None, _homogeneous(1.5), {"k": 3, "n": 2, "h": -0.4}),
     ("alpha_15_h065", None, _homogeneous(1.5), {"k": 3, "n": 2, "h": -0.65})),
    (("rel_kepler", _REL, _homogeneous(1.0), {"k": 4, "n": 3, "h": -0.2, "L": _REL_L}),
     ("rel_kepler_h018", _REL, _homogeneous(1.0), {"k": 4, "n": 3, "h": -0.18, "L": _REL_L}),
     ("rel_kepler_h022", _REL, _homogeneous(1.0), {"k": 4, "n": 3, "h": -0.22, "L": _REL_L})),
)


@dataclass(frozen=True)
class TableInputs:
    config: str
    out: str
    expected: dict  # case name -> (verdict, planar dim, spatial dim, planar dim_F, spatial dim_F)


def table_inputs(rows, workdir):
    """Write the multi-case config, validate it against the CLI schema, and
    record the known answer of every row."""
    cases = []
    for name, law, potential, orbit in rows:
        cases.append({"name": name, "potential": potential, "orbit": orbit}
                     | ({"law": law} if law is not None else {}))
    path = os.path.join(workdir, "nondeg_table.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"schema_version": 1, "cases": cases}, f, indent=1)
    cf.cli.load_config(path)
    expected = {name: {"harmonic": _DEGENERATE_HARMONIC, "kepler": _DEGENERATE_KEPLER}
                .get(name, _NONDEGENERATE) for name, *_ in rows}
    return TableInputs(path, os.path.join(workdir, "nondeg_out"), expected)


def setup_table(seed, workdir):
    p1, p2, p3, p4 = pick(seed, TABLE_STRATA)
    return table_inputs([HARMONIC, p1, p2, KEPLER, p3, p4], workdir)


def pass_table(inputs, tally):
    result = os.path.join(inputs.out, "nondeg.json")
    if os.path.exists(result):
        os.remove(result)
    code = cf.cli.main(["nondeg", "--config", inputs.config, "--out", inputs.out,
                        "--reproducible"])
    rows = {}
    if os.path.exists(result):
        with open(result, encoding="utf-8") as f:
            rows = {r["case"]: r for r in json.load(f)["verdicts"]}
    for name, want in inputs.expected.items():
        tally.attempted += 1
        row = rows.get(name)
        if code != 0 or row is None or "error" in row:
            tally.fail(f"nondeg_table {name}: exit code {code}, row {row}")
            continue
        got = (row["fixed_period"], row["planar_kernel_dim"], row["spatial_kernel_dim"],
               row["planar_dim_F"], row["spatial_dim_F"])
        if row["fixed_energy"] != want[0] or got != want:
            tally.fail(f"nondeg_table {name}: got {got}, fixed-energy "
                       f"{row['fixed_energy']}; want {want}")
            continue
        tally.units += 1


# --- resonance_survey ---

def survey_targets(n_max=7):
    """Every coprime k:n with n <= n_max and apsidal angle k pi / n in
    [pi / 2, 2 pi]."""
    return tuple((k, n) for n in range(1, n_max + 1) for k in range(1, 2 * n + 1)
                 if math.gcd(k, n) == 1 and 2 * k >= n)


@dataclass(frozen=True)
class Triple:
    """One (law, potential, h) survey point with its known answers: the
    targets that exist, and among them those the program fails on today."""

    label: str
    law: tuple  # ("classical",) or ("relativistic", c)
    potential: tuple  # ("homogeneous", alpha) or ("levi_civita", lam)
    h: float
    hits: str
    known_failures: str = ""

    def build(self):
        law = (cf.KineticLaw.classical() if self.law[0] == "classical"
               else cf.KineticLaw.relativistic(m=1.0, c=self.law[1]))
        kind, p = self.potential
        V = (cf.Potential.homogeneous(1.0, p) if kind == "homogeneous"
             else cf.Potential.levi_civita(1.0, p))
        return law, V

    def exists(self):
        return set(self.hits.split()) | set(self.known_failures.split())


# what a known failure raises
KNOWN_DEFECTS = (cf.RootFindError, cf.QuadratureError)


_ALL18 = "2:1 3:2 4:3 5:3 5:4 7:4 6:5 7:5 8:5 9:5 7:6 11:6 8:7 9:7 10:7 11:7 12:7 13:7"
# the known failures are RootFindError ("resonance residual ... above
# tolerance": the phi tolerance sits below the quadrature's accuracy floor),
# except 9:7 at h = -0.22, where the profile at the found root raises
# QuadratureError
SURVEY_STRATA = (
    (Triple("hom_a05_h-1.5", ("classical",), ("homogeneous", 0.5), -1.5, "3:4 4:5 5:7"),
     Triple("hom_a05_h-1.2", ("classical",), ("homogeneous", 0.5), -1.2, "3:4 4:5 5:7"),
     Triple("hom_a05_h-1.9", ("classical",), ("homogeneous", 0.5), -1.9, "3:4 4:5 5:7")),
    (Triple("lc_l0.1_h-0.5", ("classical",), ("levi_civita", 0.1), -0.5,
            _ALL18.replace(" 10:7", ""), "10:7"),
     Triple("lc_l0.1_h-0.55", ("classical",), ("levi_civita", 0.1), -0.55, _ALL18),
     Triple("lc_l0.1_h-0.6", ("classical",), ("levi_civita", 0.1), -0.6, _ALL18),
     Triple("relkep_c3_h-0.5", ("relativistic", 3.0), ("homogeneous", 1.0), -0.5, _ALL18)),
    (Triple("relkep_c1_h-0.2", ("relativistic", 1.0), ("homogeneous", 1.0), -0.2,
            "2:1 3:2 4:3 5:3 7:4 7:5 8:5 9:5 11:6 10:7 11:7 12:7 13:7", "9:7"),
     Triple("relkep_c1_h-0.18", ("relativistic", 1.0), ("homogeneous", 1.0), -0.18,
            "3:2 4:3 5:3 5:4 7:4 7:5 8:5 9:5 11:6 9:7 11:7 12:7 13:7", "2:1 10:7"),
     Triple("relkep_c1_h-0.22", ("relativistic", 1.0), ("homogeneous", 1.0), -0.22,
            "2:1 3:2 4:3 5:3 7:4 7:5 8:5 9:5 11:6 11:7 12:7", "9:7 10:7 13:7")),
)


@dataclass(frozen=True)
class SurveyInputs:
    points: tuple  # (triple, law, potential)
    targets: tuple


def setup_survey(seed, workdir):
    triples = pick(seed, SURVEY_STRATA)
    return SurveyInputs(tuple((t, *t.build()) for t in triples), survey_targets())


def pass_survey(inputs, tally):
    for triple, law, V in inputs.points:
        exists = triple.exists()
        for k, n in inputs.targets:
            what = f"resonance_survey {triple.label} {k}:{n}"
            tally.attempted += 1
            try:
                orbit = cf.find_closed_orbit(law, V, k, n, triple.h)
                rep = cf.k0_hessian(law, V, orbit.profile.h, orbit.profile.L)
                verdicts = (cf.nondeg_fixed_period(rep), cf.nondeg_fixed_energy(rep))
            except cf.TargetOutOfRangeError:
                if f"{k}:{n}" in exists:
                    tally.fail(f"{what}: out of range, but the orbit exists")
                else:
                    tally.units += 1
                continue
            except Exception as exc:  # wrong unless it is a known failure
                known = (f"{k}:{n}" in triple.known_failures.split()
                         and isinstance(exc, KNOWN_DEFECTS))
                tally.fail(f"{what}: {type(exc).__name__}: {exc}", wrong=not known)
                continue
            if f"{k}:{n}" not in exists:
                tally.fail(f"{what}: found, but the target is out of range")
            elif verdicts != ("nondegenerate", "nondegenerate"):
                tally.fail(f"{what}: verdicts {verdicts}")
            else:
                tally.units += 1


# --- multistart_fp and spatial_fe ---

EPS = 1e-3
# global turns of the planar problem (field, seeds and samples): it is
# rotation-equivariant, Nelder-Mead refinement of the distance included, so
# every draw does the same work up to rounding (RHS evaluations within 0.1%)
PLANE_TURNS = tuple(2.0 * math.pi * j / 8 for j in range(8))


def _turn(M, z):
    d = M.shape[0]
    return np.concatenate([M @ z[:d], M @ z[d:]])


def base_orbit(dim):
    law = cf.KineticLaw.classical()
    V = cf.Potential.homogeneous(1.0, 0.5)
    return cf.find_closed_orbit(law, V, 4, 5, -1.9, dim=dim)


@dataclass(frozen=True)
class ContinuationInputs:
    template: object  # ShootingProblem
    samples: object  # ManifoldSample
    must_accept: tuple  # seed ids whose continuation is known to converge


def multistart_inputs(beta, eps=EPS, grid=(2, 2)):
    """4:5 orbit of alpha = 0.5 at h = -1.9 under a resonant cosine electric
    field; seeds at rotations {0, pi} x shifts {0, tau/2} (for the default
    ``grid``), all turned by ``beta``.  The shift-0 seeds are known to
    converge; the others stagnate on the first rung of the eps ladder."""
    orbit = base_orbit(2)
    base = cf.manifold_samples(orbit, *grid, group="planar")
    c, s = math.cos(beta), math.sin(beta)
    M = np.array([[c, -s], [s, c]])
    elements = tuple((a + beta, th) for a, th in base.elements)
    samples = cf.ManifoldSample(orbit, "planar", elements,
                                np.array([_turn(M, z) for z in base.states]))
    pert = cf.Perturbation.uniform_electric((c, s), eps, profile="cosine",
                                            T_forcing=orbit.T)
    system = cf.HamiltonianSystem(orbit.law, orbit.potential, pert, 2)
    template = cf.ShootingProblem(system, "fixed_period", samples.states[0], orbit.T)
    must = tuple(i for i, (_, th) in enumerate(elements) if th == 0.0)
    return ContinuationInputs(template, samples, must)


def setup_multistart(seed, workdir):
    (beta,) = pick(seed, (PLANE_TURNS,))
    return multistart_inputs(beta)


def _certify(r, what, tally, energy=False):
    """Re-check an accepted solution; True when it passes."""
    bad = []
    if not r.residual <= RESIDUAL_MAX:
        bad.append(f"residual {r.residual:.3g}")
    if energy and not r.energy_residual <= ENERGY_RESIDUAL_MAX:
        bad.append(f"energy residual {r.energy_residual:.3g}")
    if r.distance is None or not r.distance <= DISTANCE_MAX:
        bad.append(f"distance {r.distance}")
    if bad:
        tally.fail(f"{what}: accepted but {', '.join(bad)}")
        return False
    return True


def pass_multistart(inputs, tally):
    n = len(inputs.samples.states)
    tally.attempted += n
    try:
        results = cf.multistart(inputs.template, inputs.samples)
        certified = [cf.distance_to_manifold(r, inputs.samples)
                     for r in results if r.accepted]
        distinct = cf.distinct_results(results)
    except Exception as exc:  # every seed counts as wrong
        for _ in range(n):
            tally.fail(f"multistart_fp: {type(exc).__name__}: {exc}")
        return
    tally.units += len(results)
    for r in results:
        if not r.accepted and r.seed_id in inputs.must_accept:
            tally.fail(f"multistart_fp seed {r.seed_id}: rejected ({r.reason})")
    for r in certified:
        if _certify(r, f"multistart_fp seed {r.seed_id}", tally):
            tally.solutions += 1
    if certified and not distinct:
        tally.fail("multistart_fp: no distinct solution among accepted ones")


def spatial_inputs():
    """The 4:5 orbit embedded in space under a uniform magnetic field along
    x3, continued at fixed energy; samples on a 6 x 4 SO(3) x shift grid."""
    orbit = base_orbit(3)
    samples = cf.manifold_samples(orbit, 6, 4, group="SO3")
    pert = cf.Perturbation.uniform_magnetic((0.0, 0.0, 1.0), EPS)
    system = cf.HamiltonianSystem(orbit.law, orbit.potential, pert, 3)
    problem = cf.ShootingProblem(system, "fixed_energy", orbit.z0, orbit.T,
                                 h=orbit.profile.h)
    return ContinuationInputs(problem, samples, (0,))


def setup_spatial(seed, workdir):
    """The same input for every seed.  Turning the spatial problem keeps its
    Newton iterations but not the Nelder-Mead path of the SO(3) distance
    refinement: each of 26 turns tried changed its number of evaluations (by
    up to 40%) or the pass's time (the half turn about the field, by 7%)."""
    return spatial_inputs()


def pass_spatial(inputs, tally):
    tally.attempted += 1
    try:
        r = cf.continue_fixed_energy(inputs.template)
        if r.accepted:
            r = cf.distance_to_manifold(r, inputs.samples)
    except Exception as exc:
        tally.fail(f"spatial_fe: {type(exc).__name__}: {exc}")
        return
    if not r.accepted:
        tally.fail(f"spatial_fe: rejected ({r.reason})")
    elif _certify(r, "spatial_fe", tally, energy=True):
        tally.units += 1
        tally.solutions += 1


# --- registry ---

_FLOW = {"flow.integrate", "flow.dense_eval", "flow.solve_ivp", "model.vector_field"}
_ORBIT = {"orbit.find_closed_orbit", "orbit.radial_profile", "orbit.turning_points"}
_LINEAR = {"flow.variational", "model.hessian"}

WORKLOADS = {
    w.name: w for w in (
        Workload("nondeg_table", setup_table, pass_table,
                 frozenset(_FLOW | _ORBIT | _LINEAR | {
                     "cli.main", "actions.k0_hessian", "nondeg.cross_check"}),
                 (("verdicts_per_min", "cases/min", 60.0, "units"),)),
        Workload("resonance_survey", setup_survey, pass_survey,
                 frozenset(_FLOW | _ORBIT | {"actions.k0_hessian"}),
                 (("resonances_per_s", "targets/s", 1.0, "units"),)),
        Workload("multistart_fp", setup_multistart, pass_multistart,
                 frozenset(_FLOW | _LINEAR | {
                     "continuation.multistart", "continuation.fixed_period",
                     "continuation.distance", "continuation.distinct"}),
                 (("seeds_per_min", "seeds/min", 60.0, "units"),
                  ("solutions_per_min", "solutions/min", 60.0, "solutions"))),
        Workload("spatial_fe", setup_spatial, pass_spatial,
                 frozenset(_FLOW | _LINEAR | {
                     "continuation.fixed_energy", "continuation.distance"}),
                 (("solutions_per_min", "solutions/min", 60.0, "solutions"),)),
    )
}

"""Command-line front end: config-driven orbit construction, non-degeneracy
sweeps, continuation runs and the non-relativistic limit table.

Exit codes: 0 success, 2 config validation failure, 3 numerical failure,
4 route disagreement.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys as _sys
import time
from functools import lru_cache
from importlib import resources

import numpy as np
import jsonschema

from . import __version__
from .actions import k0_hessian, nondeg_fixed_energy, nondeg_fixed_period
from .errors import CForbitsError, RouteDisagreementError
from .model import (HamiltonianSystem, KineticLaw, Perturbation, Potential,
                    reversor)
from .nondeg import cross_check
from .orbit import (ManifoldSample, find_closed_orbit, manifold_samples,
                    radial_profile, rotate_plane)
from .continuation import (
    ShootingProblem,
    distance_to_manifold,
    distinct_results,
    multistart,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_DISAGREEMENT = 4


class ConfigError(ValueError):
    pass


def _schema():
    with resources.files("cforbits.schemas").joinpath(
            "config.schema.json").open("r", encoding="utf-8") as f:
        return json.load(f)


@lru_cache(maxsize=None)
def _validator(command):
    """The validator of the command's definition in the shipped schema
    ($defs/commands/<command>), built once."""
    schema = _schema()
    return jsonschema.validators.validator_for(schema)(schema).evolve(
        schema=schema["$defs"]["commands"][command])


def load_config(path, command=None):
    """The config at path, validated against the command's definition.
    Without a command it is tried against each command's definition and
    accepted where one accepts it; else the error names each command's
    own refusal."""
    with open(path, "r", encoding="utf-8") as f:
        cfg = json.load(f)
    refusals = []
    for name in [command] if command else _COMMANDS:
        # the error jsonschema.validate would raise
        error = jsonschema.exceptions.best_match(
            _validator(name).iter_errors(cfg))
        if error is None:
            return cfg
        refusals.append(error.message if command
                        else f"as {name}: {error.message}")
    raise ConfigError("config validation failed: " + "; ".join(refusals))


def _given(cfg, *keys, **renamed):
    """Keyword arguments from the entries the config sets: each of keys
    under its own name, and each keyword of renamed from the config key
    given as its value.  A key the config leaves out keeps the library's
    default."""
    pairs = [(k, k) for k in keys] + list(renamed.items())
    return {name: cfg[k] for name, k in pairs if k in cfg}


def _build_law(cfg):
    """The kinetic law of a law block; with none, the classical law."""
    if cfg is None:
        return KineticLaw.classical()
    if cfg["kind"] == "classical":
        return KineticLaw.classical(**_given(cfg, "m"))
    return KineticLaw.relativistic(**_given(cfg, "m", "c"))


def _build_potential(cfg):
    if cfg["kind"] == "homogeneous":
        return Potential.homogeneous(alpha=cfg["alpha"], **_given(cfg, "kappa"))
    return Potential.levi_civita(**_given(cfg, "kappa", lam="lambda"))


def _find_orbit(law, V, ocfg):
    return find_closed_orbit(law, V, ocfg["k"], ocfg["n"], ocfg["h"],
                             **_given(ocfg, L_seed="L"))


def _build_perturbation(cfg, T_orbit):
    fam = cfg["family"]
    eps = cfg["eps"]
    if fam == "uniform_electric":
        kw = _given(cfg, "profile", "T_forcing")
        if kw.get("T_forcing") == "orbit_period":
            kw["T_forcing"] = T_orbit
        return Perturbation.uniform_electric(
            tuple(cfg.get("e_vec", (1.0, 0.0, 0.0))), eps, **kw)
    if fam == "uniform_magnetic":
        return Perturbation.uniform_magnetic(
            tuple(cfg.get("B0", (0.0, 0.0, 1.0))), eps)
    return Perturbation.rotating_frame(eps)


class Emitter:
    """Writes JSON/CSV artifacts plus a run manifest into one directory."""

    def __init__(self, out_dir, config_path, reproducible):
        self.out = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.reproducible = reproducible
        self.t0 = time.time()
        self.warnings = []
        self.files = []
        try:
            with open(config_path, "rb") as f:
                self.config_sha256 = hashlib.sha256(f.read()).hexdigest()
        except OSError:
            # a config that cannot be read; main refuses it
            self.config_sha256 = None

    def warn(self, msg):
        self.warnings.append(msg)

    def write_json(self, name, payload):
        payload = dict(payload)
        payload["schema_version"] = 1
        payload["manifest"] = "manifest.json"
        path = os.path.join(self.out, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True, allow_nan=False)
            f.write("\n")
        self.files.append(name)
        return path

    def write_csv(self, name, header, rows):
        path = os.path.join(self.out, name)
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\r\n")
            w.writerow(header)
            for row in rows:
                w.writerow(row)
        self.files.append(name)
        return path

    def finish(self):
        manifest = {
            "schema_version": 1,
            "toolkit_version": __version__,
            "config_sha256": self.config_sha256,
            "files": sorted(self.files),
            "warnings": self.warnings,
            "elapsed_seconds": 0.0 if self.reproducible
            else round(time.time() - self.t0, 3),
        }
        path = os.path.join(self.out, "manifest.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")


class _ManifestWarnings(logging.Handler):
    """Appends the WARNING records of the ``cforbits`` loggers to the
    manifest's warnings."""

    def __init__(self, em: Emitter):
        super().__init__(logging.WARNING)
        self.em = em

    def emit(self, record):
        self.em.warn(f"{record.name}: {record.getMessage()}")


def _fmt(x):
    return float(f"{x:.12g}")


def _finite(x):
    """_fmt(x) for a finite x; None for None, inf or nan."""
    return _fmt(x) if x is not None and math.isfinite(x) else None


def _write_states(em: Emitter, name, ts, states):
    """CSV of the phase states at the times ts, one row per time."""
    d = states.shape[1] // 2
    header = (["t"] + [f"x{i+1}" for i in range(d)]
              + [f"p{i+1}" for i in range(d)])
    rows = [[f"{t:.12g}"] + [f"{v:.12g}" for v in z]
            for t, z in zip(ts, states)]
    em.write_csv(name, header, rows)


def cmd_orbit(cfg, em: Emitter):
    law = _build_law(cfg.get("law"))
    V = _build_potential(cfg["potential"])
    orbit = _find_orbit(law, V, cfg["orbit"])
    p = orbit.profile
    summary = {
        "h": _fmt(p.h), "L": _fmt(p.L),
        "r_min": _fmt(p.r_min), "r_max": _fmt(p.r_max),
        "tau": _fmt(p.tau), "phi": _fmt(p.phi),
        "eccentricity": _fmt(p.eccentricity),
        "k": orbit.k, "n": orbit.n, "T": _fmt(orbit.T),
        "closure_residual": _fmt(orbit.closure_residual),
    }
    em.write_json("orbit.json", summary)
    output = cfg.get("output", {})
    if output.get("write_trajectories", True):
        ts = np.linspace(0.0, orbit.T, output.get("trajectory_samples", 1000))
        _write_states(em, "trajectory.csv", ts, orbit.states(ts))
    return EXIT_OK


def cmd_nondeg(cfg, em: Emitter):
    """Cross-check every case.  A case whose routes disagree, or that fails
    numerically (any other toolkit error), is recorded as a {"case",
    "error"} entry and the other cases go on; the exit code is 3 if any
    case failed numerically, else 4 if any disagreed."""
    rows = []
    verdicts = []
    disagreement = failed = False
    for i, case in enumerate(cfg["cases"]):
        name = case.get("name", f"case{i}")
        law = _build_law(case.get("law", cfg.get("law")))
        V = _build_potential(case["potential"])
        try:
            cc = cross_check(_find_orbit(law, V, case["orbit"]))
        except RouteDisagreementError as exc:
            disagreement = True
            em.warn(f"{name}: {exc}")
            verdicts.append({"case": name, "error": str(exc)})
            continue
        except CForbitsError as exc:
            # a numerical failure of one case; the other cases still count
            failed = True
            error = f"[{type(exc).__name__}] {exc}"
            print(f"error: {name}: {error}", file=_sys.stderr)
            em.warn(f"{name}: {error}")
            verdicts.append({"case": name, "error": error})
            continue
        a = cc.actions
        for problem, scale, verdict, kernels in (
                ("fixed_period", a.scale_fixed_period, cc.fixed_period_verdict,
                 (cc.planar_fp, cc.spatial_fp)),
                ("fixed_energy", a.scale_fixed_energy, cc.fixed_energy_verdict,
                 (cc.planar_fe, cc.spatial_fe))):
            rows.append([name, problem, "actions", f"{scale:.6g}", verdict,
                         "", ""])
            for route, rep in zip(("monodromy_planar", "monodromy_spatial"),
                                  kernels):
                rows.append([name, problem, route, str(rep.kernel_dim),
                             rep.verdict, f"{rep.gap:.6g}",
                             f"{rep.symplectic_residual:.6g}"])
        verdicts.append({
            "case": name,
            "fixed_period": cc.fixed_period_verdict,
            "fixed_energy": cc.fixed_energy_verdict,
            "planar_kernel_dim": cc.planar_fp.kernel_dim,
            "spatial_kernel_dim": cc.spatial_fp.kernel_dim,
            "planar_dim_F": cc.planar_fe.kernel_dim,
            "spatial_dim_F": cc.spatial_fe.kernel_dim,
            "det_fixed_period_normalized": _fmt(a.scale_fixed_period),
            "det_fixed_energy_normalized": _fmt(a.scale_fixed_energy),
            # |z(tau) - Rot(2 pi k/n) z0|: residual of the one-radial-period
            # factorization every monodromy above is built from, with z(tau)
            # the apogee mirrored about the perigee and stepped back to tau
            "radial_defect": _fmt(cc.planar_fp.radial_defect),
        })
    em.write_csv("nondeg.csv",
                 ["case", "problem", "route", "value", "verdict",
                  "gap", "symplectic_residual"], rows)
    em.write_json("nondeg.json", {"verdicts": verdicts})
    if failed:
        return EXIT_NUMERICAL
    return EXIT_DISAGREEMENT if disagreement else EXIT_OK


def _turned(samples: ManifoldSample, a: float) -> ManifoldSample:
    """The manifold samples turned by the angle a about x3, elements and
    states alike."""
    if samples.group == "planar":
        elements = tuple((psi + a, th) for psi, th in samples.elements)
    else:
        c, s = math.cos(a), math.sin(a)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        elements = tuple((turn @ M, th) for M, th in samples.elements)
    return ManifoldSample(samples.base, samples.group, elements,
                          rotate_plane(samples.states, a))


def cmd_continue(cfg, em: Emitter):
    ccfg = cfg.get("continuation", {})
    law = _build_law(cfg.get("law"))
    V = _build_potential(cfg["potential"])
    orbit = _find_orbit(law, V, cfg["orbit"])
    mode = ccfg.get("mode", "fixed_period")

    # gate: refuse a degenerate unperturbed manifold
    rep = k0_hessian(law, V, orbit.profile.h, orbit.profile.L,
                     profile=orbit.profile)
    verdict = (nondeg_fixed_period(rep) if mode == "fixed_period"
               else nondeg_fixed_energy(rep))
    if verdict == "degenerate":
        raise ConfigError("degenerate unperturbed manifold: continuation "
                          "from it is not covered by the non-degeneracy "
                          "theory")

    pert = _build_perturbation(cfg["perturbation"], orbit.T)
    sys = HamiltonianSystem(law, V, pert, pert.dim)
    samples = manifold_samples(
        orbit, ccfg.get("count_rot", 8), ccfg.get("count_shift", 4),
        group="planar" if pert.dim == 2 else "SO3")
    # the apsis samples are built on the line x1: turned onto the
    # reversor's line, those on it lie on its fixed set for a field off x1
    a = reversor(pert)
    if a:
        samples = _turned(samples, a)
    template = ShootingProblem(
        sys, mode, samples.states[0], orbit.T,
        h=orbit.profile.h if mode == "fixed_energy" else None,
    )
    results = multistart(template, samples)
    refined = [distance_to_manifold(r, samples) if r.accepted else r
               for r in results]
    accepted = [r for r in refined if r.accepted]
    distinct = distinct_results(refined)
    payload = {
        "mode": mode,
        "eps": pert.eps,
        "base_period": _fmt(orbit.T),
        "n_seeds": len(refined),
        "n_accepted": len(accepted),
        "n_distinct": len(distinct),
        "results": [
            {
                "seed_id": r.seed_id,
                "accepted": r.accepted,
                "reason": r.reason,
                "z0": [_fmt(v) for v in r.z0],
                "residual": _finite(r.residual),
                "energy_residual": _finite(r.energy_residual),
                "period": _fmt(r.period),
                "period_shift_rel": _fmt(abs(r.period - orbit.T) / orbit.T),
                "distance_to_manifold": _finite(r.distance),
                "newton_iters": r.newton_iters,
                "variational_solves": r.variational_solves,
                "jacobian_reuses": r.jacobian_reuses,
                "state_shots": r.state_shots,
                "half_condition": _finite(r.half_condition),
                "reduced_gradient": _finite(r.reduced_gradient),
                "reduced_distance": _finite(r.reduced_distance),
                "history": [[_fmt(eps), _finite(res), ok]
                            for eps, res, ok in r.history],
                "rung_starts": [[_fmt(eps), _finite(res)]
                                for eps, res in r.rung_starts],
                "contractions": [_fmt(theta) for theta in r.contractions],
            }
            for r in refined
        ],
    }
    em.write_json("continuation.json", payload)
    if cfg.get("output", {}).get("write_trajectories", False):
        n_s = cfg.get("output", {}).get("trajectory_samples", 500)
        for r in accepted:
            ts = np.linspace(0.0, r.period, n_s)
            _write_states(em, f"continued_seed{r.seed_id}.csv", ts,
                          r.trajectory(ts))
    if not accepted:
        em.warn("no accepted continuation results")
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_limit_classical(cfg, em: Emitter):
    # the law block is relativistic, without c: the command sweeps c_values
    mass = _given(cfg.get("law", {}), "m")
    V = _build_potential(cfg["potential"])
    h, L = cfg["orbit"]["h"], cfg["orbit"]["L"]
    c_values = sorted(cfg.get("c_values", [5.0, 10.0, 20.0, 40.0]))
    classical = KineticLaw.classical(**mass)
    pc = radial_profile(classical, V, h, L)
    rows = []
    errs_tau, errs_phi = [], []
    for c in c_values:
        law = KineticLaw.relativistic(c=c, **mass)
        p = radial_profile(law, V, h, L)
        e_tau = abs(p.tau - pc.tau)
        e_phi = abs(p.phi - pc.phi)
        errs_tau.append(e_tau)
        errs_phi.append(e_phi)
        rows.append([f"{c:.12g}", f"{p.tau:.12g}", f"{p.phi:.12g}",
                     f"{e_tau:.6g}", f"{e_phi:.6g}"])
    em.write_csv("limit_classical.csv",
                 ["c", "tau", "phi", "tau_abs_err", "phi_abs_err"], rows)

    def order(errors):
        x = np.log(1.0 / np.array(c_values))
        y = np.log(np.maximum(errors, 1e-300))
        return float(np.polyfit(x, y, 1)[0])

    payload = {
        "classical_tau": _fmt(pc.tau),
        "classical_phi": _fmt(pc.phi),
        "c_values": [_fmt(c) for c in c_values],
        "tau_errors": [_fmt(e) for e in errs_tau],
        "phi_errors": [_fmt(e) for e in errs_phi],
        "tau_order": _fmt(order(errs_tau)),
        "phi_order": _fmt(order(errs_phi)),
    }
    em.write_json("limit_classical.json", payload)
    return EXIT_OK


_COMMANDS = {
    "orbit": cmd_orbit,
    "nondeg": cmd_nondeg,
    "continue": cmd_continue,
    "limit-classical": cmd_limit_classical,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cforbits",
        description="Periodic orbits of generalized central force problems: "
                    "construction, non-degeneracy verdicts, continuation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--reproducible", action="store_true")
    args = parser.parse_args(argv)
    em = Emitter(args.out, args.config, args.reproducible)
    try:
        cfg = load_config(args.config, args.command)
    except (OSError, ValueError) as exc:
        # unreadable, not UTF-8 or not JSON, or refused by the command's
        # definition in the schema
        print(f"error: {exc}", file=_sys.stderr)
        em.finish()
        return EXIT_VALIDATION
    library_log = logging.getLogger("cforbits")
    handler = _ManifestWarnings(em)
    library_log.addHandler(handler)
    try:
        code = _COMMANDS[args.command](cfg, em)
    except CForbitsError as exc:
        print(f"error: [{type(exc).__name__}] {exc}", file=_sys.stderr)
        code = EXIT_NUMERICAL
    except ValueError as exc:
        # constructor rejections (bad alpha, bad mode, ...) are config errors
        print(f"error: {exc}", file=_sys.stderr)
        code = EXIT_VALIDATION
    finally:
        # a manifest on every exit, also when an unmapped exception
        # propagates
        library_log.removeHandler(handler)
        em.finish()
    return code


if __name__ == "__main__":
    _sys.exit(main())

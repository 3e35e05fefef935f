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
import sys as _sys
import time
from importlib import resources

import numpy as np
import jsonschema

from . import __version__
from .actions import k0_hessian, nondeg_fixed_energy, nondeg_fixed_period
from .errors import CForbitsError, RouteDisagreementError
from .model import HamiltonianSystem, KineticLaw, Perturbation, Potential
from .nondeg import check_fixed_energy, check_planar_fixed_period, \
    check_spatial_fixed_period, cross_check
from .orbit import find_closed_orbit, manifold_samples, radial_profile
from .continuation import (
    ShootingProblem,
    distance_to_manifold,
    distinct_results,
    eps_path,
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


def load_config(path):
    with open(path, "r", encoding="utf-8") as f:
        cfg = json.load(f)
    try:
        jsonschema.validate(cfg, _schema())
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config validation failed: {exc.message}") from exc
    return cfg


def _build_law(cfg):
    kind = cfg["kind"]
    if kind == "classical":
        return KineticLaw.classical(m=cfg.get("m", 1.0))
    return KineticLaw.relativistic(m=cfg.get("m", 1.0), c=cfg.get("c", 1.0))


def _build_potential(cfg):
    kind = cfg["kind"]
    if kind == "homogeneous":
        if "alpha" not in cfg:
            raise ConfigError("homogeneous potential needs alpha")
        return Potential.homogeneous(cfg.get("kappa", 1.0), cfg["alpha"])
    return Potential.levi_civita(cfg.get("kappa", 1.0), cfg.get("lambda", 1.0))


def _find_orbit(law, V, ocfg, tols):
    kw = dict(
        phi_tol=tols.get("phi_tol", 1e-11),
        integrate_tol=tols.get("integrate_tol", 1e-12),
    )
    search = ocfg.get("search", "vary_L")
    if search == "vary_h" and "L" not in ocfg:
        raise ConfigError("vary_h search needs an L value")
    if search == "vary_L" and "h" not in ocfg:
        raise ConfigError("vary_L search needs an h value")
    return find_closed_orbit(law, V, ocfg["k"], ocfg["n"], ocfg.get("h", 0.0),
                             search=search, L_seed=ocfg.get("L"), **kw)


def _build_perturbation(cfg, T_orbit):
    fam = cfg["family"]
    eps = cfg["eps"]
    if fam == "uniform_electric":
        Tf = cfg.get("T_forcing")
        if Tf == "orbit_period":
            Tf = T_orbit
        return Perturbation.uniform_electric(
            tuple(cfg.get("e_vec", (1.0, 0.0, 0.0))), eps,
            profile=cfg.get("profile", "constant"), T_forcing=Tf)
    if fam == "uniform_magnetic":
        return Perturbation.uniform_magnetic(
            tuple(cfg.get("B0", (0.0, 0.0, 1.0))), eps)
    return Perturbation.rotating_frame(eps)


def _scaled_tols(cfg, tol_scale):
    tols = dict(cfg.get("tolerances", {}))
    for key in ("integrate_tol", "phi_tol", "rank_tol"):
        if key in tols:
            tols[key] = tols[key] * tol_scale
        elif tol_scale != 1.0:
            defaults = {"integrate_tol": 1e-12, "phi_tol": 1e-11,
                        "rank_tol": 1e-6}
            tols[key] = defaults[key] * tol_scale
    return tols


class Emitter:
    """Writes JSON/CSV artifacts plus a run manifest into one directory."""

    def __init__(self, out_dir, config_path, cfg, reproducible):
        import os
        self.out = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.reproducible = reproducible
        self.t0 = time.time()
        self.warnings = []
        self.files = []
        with open(config_path, "rb") as f:
            self.config_sha256 = hashlib.sha256(f.read()).hexdigest()
        self.cfg = cfg

    def warn(self, msg):
        self.warnings.append(msg)

    def write_json(self, name, payload):
        import os
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
        import os
        path = os.path.join(self.out, name)
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\r\n")
            w.writerow(header)
            for row in rows:
                w.writerow(row)
        self.files.append(name)
        return path

    def finish(self):
        import os
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


def cmd_orbit(cfg, em: Emitter, tols):
    law = _build_law(cfg.get("law", {"kind": "classical"}))
    V = _build_potential(cfg["potential"])
    orbit = _find_orbit(law, V, cfg["orbit"], tols)
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
    n_s = cfg.get("output", {}).get("trajectory_samples", 1000)
    d = orbit.dim
    header = (["t"] + [f"x{i+1}" for i in range(d)]
              + [f"p{i+1}" for i in range(d)])
    ts = np.linspace(0.0, orbit.T, n_s)
    rows = [[f"{t:.12g}"] + [f"{v:.12g}" for v in z]
            for t, z in zip(ts, orbit.states(ts))]
    em.write_csv("trajectory.csv", header, rows)
    return EXIT_OK


def cmd_nondeg(cfg, em: Emitter, tols):
    cases = cfg.get("cases")
    if not cases:
        if "potential" not in cfg or "orbit" not in cfg:
            raise ConfigError("nondeg needs 'cases' or potential+orbit")
        cases = [{"name": "case0", "law": cfg.get("law", {"kind": "classical"}),
                  "potential": cfg["potential"], "orbit": cfg["orbit"]}]
    rows = []
    verdicts = []
    disagreement = False
    for i, case in enumerate(cases):
        name = case.get("name", f"case{i}")
        law = _build_law(case.get("law", cfg.get("law", {"kind": "classical"})))
        V = _build_potential(case["potential"])
        orbit = _find_orbit(law, V, case["orbit"], tols)
        rank_tol = tols.get("rank_tol", 1e-6)
        fd_step = tols.get("fd_step", 1e-5)
        try:
            cc = cross_check(orbit, fd_step=fd_step, rank_tol=rank_tol,
                             tol=tols.get("integrate_tol", 1e-12))
        except RouteDisagreementError as exc:
            disagreement = True
            em.warn(f"{name}: {exc}")
            verdicts.append({"case": name, "error": str(exc)})
            continue
        a = cc.actions
        rows.extend([
            [name, "fixed_period", "actions",
             f"{a.scale_fixed_period:.6g}", cc.fixed_period_verdict,
             "", ""],
            [name, "fixed_period", "monodromy_planar",
             str(cc.planar_fp.kernel_dim), cc.planar_fp.verdict,
             f"{cc.planar_fp.gap:.6g}",
             f"{cc.planar_fp.symplectic_residual:.6g}"],
            [name, "fixed_period", "monodromy_spatial",
             str(cc.spatial_fp.kernel_dim), cc.spatial_fp.verdict,
             f"{cc.spatial_fp.gap:.6g}",
             f"{cc.spatial_fp.symplectic_residual:.6g}"],
            [name, "fixed_energy", "actions",
             f"{a.scale_fixed_energy:.6g}", cc.fixed_energy_verdict,
             "", ""],
            [name, "fixed_energy", "monodromy_planar",
             str(cc.planar_fe.dim_F), cc.planar_fe.verdict,
             f"{cc.planar_fe.gap:.6g}",
             f"{cc.planar_fe.symplectic_residual:.6g}"],
            [name, "fixed_energy", "monodromy_spatial",
             str(cc.spatial_fe.dim_F), cc.spatial_fe.verdict,
             f"{cc.spatial_fe.gap:.6g}",
             f"{cc.spatial_fe.symplectic_residual:.6g}"],
        ])
        verdicts.append({
            "case": name,
            "fixed_period": cc.fixed_period_verdict,
            "fixed_energy": cc.fixed_energy_verdict,
            "planar_kernel_dim": cc.planar_fp.kernel_dim,
            "spatial_kernel_dim": cc.spatial_fp.kernel_dim,
            "planar_dim_F": cc.planar_fe.dim_F,
            "spatial_dim_F": cc.spatial_fe.dim_F,
            "det_fixed_period_normalized": _fmt(a.scale_fixed_period),
            "det_fixed_energy_normalized": _fmt(a.scale_fixed_energy),
            # |z(tau) - Rot(2 pi k/n) z0|: residual of the one-radial-period
            # factorization every monodromy above is built from
            "radial_defect": _fmt(cc.planar_fp.radial_defect),
        })
    em.write_csv("nondeg.csv",
                 ["case", "problem", "route", "value", "verdict",
                  "gap", "symplectic_residual"], rows)
    em.write_json("nondeg.json", {"verdicts": verdicts})
    return EXIT_DISAGREEMENT if disagreement else EXIT_OK


def cmd_continue(cfg, em: Emitter, tols):
    law = _build_law(cfg.get("law", {"kind": "classical"}))
    V = _build_potential(cfg["potential"])
    orbit = _find_orbit(law, V, cfg["orbit"], tols)
    ccfg = cfg.get("continuation", {})
    mode = ccfg.get("mode", "fixed_period")

    # gate: warn when the unperturbed manifold is degenerate
    rep = k0_hessian(law, V, orbit.profile.h, orbit.profile.L,
                     fd_step=tols.get("fd_step", 1e-5))
    verdict = (nondeg_fixed_period(rep) if mode == "fixed_period"
               else nondeg_fixed_energy(rep))
    if verdict == "degenerate":
        msg = ("degenerate unperturbed manifold: continuation from it is "
               "not covered by the non-degeneracy theory")
        if not ccfg.get("proceed_if_degenerate", False):
            raise ConfigError(msg + " (set proceed_if_degenerate to force)")
        em.warn(msg)

    pert = _build_perturbation(cfg["perturbation"], orbit.T)
    if pert.family == "rotating_frame":
        dim = 2
        group = "planar"
    else:
        dim = 3
        group = ccfg.get("group", "SO3")
    sys = HamiltonianSystem(law, V, pert, dim)
    samples = manifold_samples(orbit, ccfg.get("count_rot", 8),
                               ccfg.get("count_shift", 4), group=group)
    template = ShootingProblem(
        sys, mode, samples.states[0], orbit.T,
        h=orbit.profile.h if mode == "fixed_energy" else None,
        phase_anchor=samples.states[0] if mode == "fixed_energy" else None,
    )
    ladder = eps_path(pert.eps, ccfg.get("eps_start", 1e-4))
    results = multistart(template, samples, ladder,
                         max_newton=ccfg.get("max_newton", 25))
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
                "residual": _fmt(r.residual) if np.isfinite(r.residual) else None,
                "energy_residual": _fmt(r.energy_residual)
                if np.isfinite(r.energy_residual) else None,
                "period": _fmt(r.period),
                "period_shift_rel": _fmt(abs(r.period - orbit.T) / orbit.T),
                "distance_to_manifold": _fmt(r.distance)
                if r.distance is not None else None,
                "newton_iters": r.newton_iters,
                "history": [[_fmt(eps), _fmt(lam),
                             _fmt(res) if np.isfinite(res) else None, ok]
                            for eps, lam, res, ok in r.history],
            }
            for r in refined
        ],
    }
    em.write_json("continuation.json", payload)
    if cfg.get("output", {}).get("write_trajectories", False):
        n_s = cfg.get("output", {}).get("trajectory_samples", 500)
        for r in accepted:
            d = np.asarray(r.z0).size // 2
            header = (["t"] + [f"x{i+1}" for i in range(d)]
                      + [f"p{i+1}" for i in range(d)])
            ts = np.linspace(0.0, r.period, n_s)
            rows = [[f"{t:.12g}"] + [f"{v:.12g}" for v in z]
                    for t, z in zip(ts, r.trajectory(ts))]
            em.write_csv(f"continued_seed{r.seed_id}.csv", header, rows)
    if not accepted:
        em.warn("no accepted continuation results")
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_limit_classical(cfg, em: Emitter, tols):
    law_cfg = cfg.get("law", {"kind": "relativistic"})
    if law_cfg["kind"] != "relativistic":
        raise ConfigError("limit-classical needs a relativistic law")
    m = law_cfg.get("m", 1.0)
    V = _build_potential(cfg["potential"])
    ocfg = cfg["orbit"]
    h = ocfg.get("h")
    L = ocfg.get("L")
    if h is None or L is None:
        raise ConfigError("limit-classical needs both h and L in orbit")
    c_values = sorted(cfg.get("c_values", [5.0, 10.0, 20.0, 40.0]))
    classical = KineticLaw.classical(m=m)
    pc = radial_profile(classical, V, h, L)
    rows = []
    errs_tau, errs_phi = [], []
    for c in c_values:
        law = KineticLaw.relativistic(m=m, c=c)
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
        p.add_argument("--tol-scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    em = Emitter(args.out, args.config, cfg, args.reproducible)
    tols = _scaled_tols(cfg, args.tol_scale)
    library_log = logging.getLogger("cforbits")
    handler = _ManifestWarnings(em)
    library_log.addHandler(handler)
    try:
        code = _COMMANDS[args.command](cfg, em, tols)
    except RouteDisagreementError as exc:
        print(f"error: route disagreement: {exc}", file=_sys.stderr)
        code = EXIT_DISAGREEMENT
    except CForbitsError as exc:
        code_name = type(exc).__name__
        print(f"error: [{code_name}] {exc}", file=_sys.stderr)
        code = EXIT_NUMERICAL
    except ValueError as exc:
        # constructor rejections (bad alpha, bad mode, ...) are config errors
        print(f"error: {exc}", file=_sys.stderr)
        code = EXIT_VALIDATION
    finally:
        library_log.removeHandler(handler)
    em.finish()
    return code


if __name__ == "__main__":
    _sys.exit(main())

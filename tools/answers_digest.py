"""Digest of the toolkit's answers, to show that a change keeps them.

    python3 tools/answers_digest.py > new.json
    python3 tools/answers_digest.py --compare old.json new.json

Run from the root of a source checkout: the toolkit is imported from its
``src/`` and the benchmark's inputs from ``perfbench.workloads``.  The
digest is JSON, with every float written by ``float.hex``, so two runs on
the same code and machine give the same bytes.  It has four parts:

* ``survey``: ``find_closed_orbit`` on every k:n target of every
  ``SURVEY_STRATA`` point (z0, T, the profile, ``closure_residual`` and
  ``states`` at 37 times over the period), with ``k0_hessian``'s Hessian and
  determinants, or the error it raised;
* ``pool``: ``cross_check`` on the 13 rows of the ``nondeg_table`` pool;
* ``continuation``: the ``multistart_fp`` and ``spatial_fe`` results at
  seed 0, ``multistart`` on the benchmark's 4:5 orbit in a constant field
  along x1 at eps = 1e-2 on a 2 x 2 planar grid, at fixed period and at
  fixed energy, and the perigees on +x1 and -x1 of that orbit in the
  resonant cosine field along x1 at eps = 1e-2, at fixed period (seed 0 of
  the grid in both modes and both perigees fail at the target eps and are
  continued in smaller steps, so a change of the step control shows), with
  their distances, trajectories at 37 times, Newton histories, Jacobian reuses,
  contractions and rung starts, the half-period condition and the reduced
  functional's gradient and distance;
* ``demos``: the sha256 of every artifact that ``cforbits <command>
  --reproducible`` writes for each of ``demos/configs/*.json``, and for a
  ``continue_*`` config the per-seed fields ``SEED_FIELDS`` of its
  ``continuation.json``, so that a changed result shows by how much.

``--parts`` selects parts and ``--limit N`` keeps the first N entries of
each (survey points, pool rows, continuation workloads, demo configs).
``--compare`` prints one line per field: "bit-identical", or the largest
absolute and relative difference of its floats and the number of values
that differ, and the entries where any other value (an error, a verdict,
a hash, an integer, inf) differs.  It exits with 0 when every field is
bit-identical, and with 1 when any field differs or is in one digest
only, so a "same numbers" check can be scripted:

    python3 tools/answers_digest.py --compare old.json new.json > /dev/null
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import cforbits as cf  # noqa: E402
from cforbits import cli  # noqa: E402
from perfbench import workloads  # noqa: E402

PARTS = ("survey", "pool", "continuation", "demos")
N_TIMES = 37
# the subcommand that runs each demo config, by file-name prefix
DEMO_COMMANDS = {"orbit_": "orbit", "nondeg_": "nondeg",
                 "continue_": "continue", "limit_": "limit-classical"}
# the per-seed fields of continuation.json a continue demo records; a field
# that an older continuation.json lacks is left out
SEED_FIELDS = ("accepted", "reason", "z0", "period", "residual",
               "distance_to_manifold", "newton_iters", "variational_solves",
               "jacobian_reuses", "state_shots", "half_condition",
               "contractions", "reduced_gradient", "reduced_distance")


def _hex(value):
    """JSON-ready value with floats as float.hex strings."""
    if isinstance(value, (bool, str, type(None))):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return _hex(value.tolist())
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    return [_hex(v) for v in value]


def _times(T):
    return np.linspace(0.0, T, N_TIMES)


def _error(exc):
    return {"error": f"{type(exc).__name__}: {exc}"}


def survey(limit):
    out = {}
    triples = [t for stratum in workloads.SURVEY_STRATA for t in stratum]
    for triple in triples[:limit]:
        law, V = triple.build()
        for k, n in workloads.survey_targets():
            try:
                orbit = cf.find_closed_orbit(law, V, k, n, triple.h)
                p = orbit.profile
                rep = cf.k0_hessian(law, V, p.h, p.L, profile=p)
            except cf.CForbitsError as exc:
                out[f"{triple.label} {k}:{n}"] = _error(exc)
                continue
            out[f"{triple.label} {k}:{n}"] = {
                "z0": orbit.z0, "T": orbit.T,
                "profile": [p.h, p.L, p.r_min, p.r_max, p.tau, p.phi, p.action],
                "closure_residual": orbit.closure_residual,
                "states": orbit.states(_times(orbit.T)),
                "hessian": rep.hessian,
                "det_fixed_period": rep.det_fixed_period,
                "det_fixed_energy": rep.det_fixed_energy,
            }
    return out


def _kernel(rep):
    return {"P": rep.P, "matrix": rep.matrix,
            "singular_values": rep.singular_values,
            "kernel_dim": rep.kernel_dim, "gap": rep.gap,
            "symplectic_residual": rep.symplectic_residual,
            "radial_defect": rep.radial_defect, "verdict": rep.verdict}


def pool(limit):
    rows = (workloads.HARMONIC, workloads.KEPLER,
            *(row for stratum in workloads.TABLE_STRATA for row in stratum))
    out = {}
    for name, law_cfg, potential, orbit_cfg in rows[:limit]:
        law = cli._build_law(law_cfg)
        V = cli._build_potential(potential)
        try:
            cc = cf.cross_check(cli._find_orbit(law, V, orbit_cfg))
        except cf.CForbitsError as exc:
            out[name] = _error(exc)
            continue
        a = cc.actions
        out[name] = {
            "hessian": a.hessian, "symmetry_defect": a.symmetry_defect,
            "det_fixed_period": a.det_fixed_period,
            "det_fixed_energy": a.det_fixed_energy,
            "fixed_period_verdict": cc.fixed_period_verdict,
            "fixed_energy_verdict": cc.fixed_energy_verdict,
            "planar_fp": _kernel(cc.planar_fp), "planar_fe": _kernel(cc.planar_fe),
            "spatial_fp": _kernel(cc.spatial_fp),
            "spatial_fe": _kernel(cc.spatial_fe),
        }
    return out


def _result(r):
    # a field that an older ContinuationResult lacks is left out
    out = {name: getattr(r, name) for name in (
        "accepted", "reason", "z0", "period", "eps", "residual",
        "energy_residual", "newton_iters", "seed_id", "distance",
        "distance_element", "history", "variational_solves",
        "jacobian_reuses", "state_shots", "rung_starts", "contractions",
        "half_condition", "reduced_gradient", "reduced_distance")
        if hasattr(r, name)}
    if r.trajectory is not None:
        out["trajectory"] = r.trajectory(_times(r.period))
    return out


def _multistart():
    inputs = workloads.setup_multistart(0, None)
    results = cf.multistart(inputs.template, inputs.samples)
    results = [cf.distance_to_manifold(r, inputs.samples) if r.accepted else r
               for r in results]
    out = {f"multistart_fp seed {r.seed_id}": _result(r) for r in results}
    out["multistart_fp distinct"] = {
        "distinct_seed_ids": [r.seed_id for r in cf.distinct_results(results)]}
    return out


def _spatial():
    inputs = workloads.setup_spatial(0, None)
    r = cf.continue_fixed_energy(inputs.template)
    if r.accepted:
        r = cf.distance_to_manifold(r, inputs.samples)
    return {"spatial_fe": _result(r)}


def _constant_field():
    orbit = workloads.base_orbit(2)
    samples = cf.manifold_samples(orbit, 2, 2, group="planar")
    pert = cf.Perturbation.uniform_electric((1.0, 0.0), 1e-2)
    system = cf.HamiltonianSystem(orbit.law, orbit.potential, pert, 2)
    out = {}
    for mode in ("fixed_period", "fixed_energy"):
        template = cf.ShootingProblem(system, mode, samples.states[0],
                                      orbit.T, h=orbit.profile.h)
        for r in cf.multistart(template, samples):
            if r.accepted:
                r = cf.distance_to_manifold(r, samples)
            out[f"constant field {mode} seed {r.seed_id}"] = _result(r)
    return out


def _cosine_perigees():
    orbit = workloads.base_orbit(2)
    samples = cf.manifold_samples(orbit, 2, 2, group="planar")
    pert = cf.Perturbation.uniform_electric(
        (1.0, 0.0), 1e-2, profile="cosine", T_forcing=orbit.T)
    system = cf.HamiltonianSystem(orbit.law, orbit.potential, pert, 2)
    p = orbit.profile
    out = {}
    for side in (1.0, -1.0):
        seed = side * np.array([p.r_min, 0.0, 0.0, p.L / p.r_min])
        r = cf.continue_fixed_period(
            cf.ShootingProblem(system, "fixed_period", seed, orbit.T))
        if r.accepted:
            r = cf.distance_to_manifold(r, samples)
        out[f"cosine field perigee {'+' if side > 0 else '-'}x1"] = _result(r)
    return out


def continuation(limit):
    out = {}
    for run in (_multistart, _spatial, _constant_field,
                _cosine_perigees)[:limit]:
        out.update(run())
    return out


def demos(limit):
    out = {}
    for config in sorted((ROOT / "demos" / "configs").glob("*.json"))[:limit]:
        (command,) = [c for prefix, c in DEMO_COMMANDS.items()
                      if config.name.startswith(prefix)]
        with tempfile.TemporaryDirectory() as tmp:
            code = cli.main([command, "--config", str(config), "--out", tmp,
                             "--reproducible"])
            files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                     for f in sorted(Path(tmp).iterdir())}
            out[config.name] = {"exit_code": code, "sha256": files}
            if command == "continue":
                payload = json.loads((Path(tmp) / "continuation.json")
                                     .read_text(encoding="utf-8"))
                out[config.name]["seeds"] = [
                    {k: r[k] for k in SEED_FIELDS if k in r}
                    for r in payload["results"]]
    return out


def digest(parts, limit):
    builders = {"survey": survey, "pool": pool, "continuation": continuation,
                "demos": demos}
    return {part: _hex(builders[part](limit)) for part in parts}


# --- compare ---

def _leaves(value, path=()):
    """(path, leaf) pairs of a digest value; list positions are not part
    of the path."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, path)
    else:
        yield path, value


def _float(leaf):
    """The finite float a leaf was written from, else None (a text, an
    integer, inf or nan; a sha256 is hex digits but no float.hex)."""
    if isinstance(leaf, str) and leaf.lstrip("-").startswith("0x"):
        return float.fromhex(leaf)
    return None


def _fields(doc):
    """{field: {entry: [leaves]}}, a field being a part and the path below
    its entries (a survey target, a pool row, a workload, a demo config)."""
    fields = defaultdict(lambda: defaultdict(list))
    for part, entries in doc.items():
        for entry, value in entries.items():
            for path, leaf in _leaves(value):
                fields[".".join((part,) + path)][entry].append(leaf)
    return fields


def _describe(old, new):
    """The comparison of one field, and whether it is bit-identical."""
    n = sum(len(v) for v in old.values())
    if old.keys() != new.keys() or any(len(old[e]) != len(new[e]) for e in old):
        changed = sorted(set(old) ^ set(new)
                         | {e for e in set(old) & set(new)
                            if len(old[e]) != len(new[e])})
        return f"different entries or shapes: {', '.join(changed[:5])}", False
    differ, text, abs_max, rel_max = 0, [], 0.0, 0.0
    for entry in old:
        for a, b in zip(old[entry], new[entry]):
            if a == b:
                continue
            differ += 1
            fa, fb = _float(a), _float(b)
            if fa is None or fb is None:
                text.append(entry)
                continue
            # 0 and -0 differ in their bits only
            diff = abs(fa - fb)
            abs_max = max(abs_max, diff)
            rel_max = max(rel_max, diff and diff / max(abs(fa), abs(fb)))
    if not differ:
        return f"bit-identical ({n} values)", True
    out = f"{differ} of {n} values differ"
    if differ > len(text):
        out += f", max abs {abs_max:.3g}, max rel {rel_max:.3g}"
    if text:
        names = sorted(set(text))
        out += f"; not finite floats in {', '.join(names[:5])}"
        out += " ..." if len(names) > 5 else ""
    return out, False


def compare(old, new):
    """One line per field of the two digests, and whether every field is
    in both and bit-identical."""
    a, b = _fields(old), _fields(new)
    lines, same = [], True
    for field in sorted(a.keys() | b.keys()):
        if field not in b or field not in a:
            text, identical = f"only in {'old' if field in a else 'new'}", False
        else:
            text, identical = _describe(a[field], b[field])
        lines.append(f"{field}: {text}")
        same &= identical
    return lines, same


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parts", nargs="+", choices=PARTS, default=list(PARTS))
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(f).read_text(encoding="utf-8"))
                    for f in args.compare)
        lines, same = compare(old, new)
        print("\n".join(lines))
        return 0 if same else 1
    json.dump(digest(args.parts, args.limit), sys.stdout, indent=1,
              sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of cforbits from outside the package.

A wrapper is installed on every name a caller looks up: each traced function
is replaced in every ``cforbits`` module that binds it (``from .flow import
integrate`` makes a second binding in ``cforbits.orbit``), and traced methods
are replaced on their classes.  Calls at ``flow`` and above become spans
(name, start, end, parent).  ``model`` calls and dense-output evaluations run
hundreds of thousands of times per pass, so they only add to counters and to
the time of the enclosing span.  ``scipy``'s ``solve_ivp``, as bound in
``cforbits.flow``, is wrapped to count right-hand-side evaluations and
accepted steps.
"""
from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# span boundaries: (module, attribute, span name)
SPANS = (
    ("cforbits.cli", "main", "cli.main"),
    ("cforbits.nondeg", "cross_check", "nondeg.cross_check"),
    ("cforbits.actions", "k0_hessian", "actions.k0_hessian"),
    ("cforbits.orbit", "find_closed_orbit", "orbit.find_closed_orbit"),
    ("cforbits.orbit", "radial_profile", "orbit.radial_profile"),
    ("cforbits.orbit", "turning_points", "orbit.turning_points"),
    ("cforbits.continuation", "multistart", "continuation.multistart"),
    ("cforbits.continuation", "continue_fixed_period", "continuation.fixed_period"),
    ("cforbits.continuation", "continue_fixed_energy", "continuation.fixed_energy"),
    ("cforbits.continuation", "distance_to_manifold", "continuation.distance"),
    ("cforbits.continuation", "distinct_results", "continuation.distinct"),
    ("cforbits.flow", "integrate_with_variational", "flow.variational"),
    ("cforbits.flow", "integrate", "flow.integrate"),
)
# aggregate-only boundaries: (module, class, method, counter name)
COUNTED = (
    ("cforbits.model", "HamiltonianSystem", "vector_field", "model.vector_field"),
    ("cforbits.model", "HamiltonianSystem", "hessian", "model.hessian"),
    ("cforbits.flow", "Trajectory", "__call__", "flow.dense_eval"),
)
SOLVER = "flow.solve_ivp"
BOUNDARIES = tuple(s[2] for s in SPANS) + tuple(c[3] for c in COUNTED) + (SOLVER,)
SEED_SPANS = ("continuation.fixed_period", "continuation.fixed_energy")


def _seed_info(result):
    return {"accepted": bool(result.accepted), "newton_iters": int(result.newton_iters)}


def _check_info(report):
    reps = (report.planar_fp, report.planar_fe, report.spatial_fp, report.spatial_fe)
    return {"gaps": [r.gap for r in reps if math.isfinite(r.gap)],
            "symplectic": max(r.symplectic_residual for r in reps)}


_INFO = {
    "continuation.fixed_period": _seed_info,
    "continuation.fixed_energy": _seed_info,
    "nondeg.cross_check": _check_info,
}


class Tracer:
    """Installs the wrappers on ``install()`` and restores the originals on
    ``uninstall()``; usable as a context manager.

    ``calls`` counts the calls at every boundary.  ``spans`` holds
    ``[name, start, end, parent, leaf_s, info]`` records in start order:
    ``parent`` is the index of the enclosing span (-1 at top level),
    ``leaf_s`` the time of counted calls made directly inside it and ``info``
    what the span's result said (acceptance, gaps) or the exception it
    raised.
    """

    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.secs = defaultdict(float)
        self.nfev = 0
        self.steps = 0
        self._stack = []
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "cforbits" or n.startswith("cforbits.")]
        for modname, attr, name in SPANS:
            orig = getattr(sys.modules[modname], attr)
            self._rebind(mods, orig, self._span(name, orig, _INFO.get(name)))
        solve_ivp = sys.modules["cforbits.flow"].solve_ivp
        self._rebind(mods, solve_ivp, self._solver(solve_ivp))
        for modname, cls, meth, name in COUNTED:
            klass = getattr(sys.modules[modname], cls)
            orig = klass.__dict__[meth]
            setattr(klass, meth, self._leaf(name, orig))
            self._undo.append((klass, meth, orig))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _rebind(self, mods, orig, wrapper):
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def _span(self, name, fn, info):
        spans, stack, calls = self.spans, self._stack, self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            rec = [name, perf(), 0.0, stack[-1] if stack else -1, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = {"raised": type(exc).__name__}
                raise
            finally:
                rec[2] = perf()
                stack.pop()
            if info is not None:
                rec[5] = info(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name, fn):
        spans, stack, calls, secs = self.spans, self._stack, self.calls, self.secs

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                calls[name] += 1
                secs[name] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _solver(self, fn):
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.calls[SOLVER] += 1
            self.nfev += int(res.nfev)
            self.steps += len(res.t) - 1
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, t0, t1, parent, _, _) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0,
                                    "end": t1, "parent": parent}) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus the durations of its child
    spans and the time of the counted calls made directly inside it."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[i] - leaf
            for i, (_, t0, t1, _, leaf, _) in enumerate(spans)]


def _under(spans, i, names):
    """Index of the nearest enclosing span of ``spans[i]`` named in
    ``names``, or -1."""
    p = spans[i][3]
    while p >= 0 and spans[p][0] not in names:
        p = spans[p][3]
    return p


def coverage_errors(tracer, active):
    """Boundaries whose call count contradicts the workload's table: active
    ones that recorded no call, and zero ones that recorded any."""
    errors = []
    for b in BOUNDARIES:
        n = tracer.calls[b]
        if b in active and n == 0:
            errors.append(f"{b}: marked active but recorded no calls")
        elif b not in active and n:
            errors.append(f"{b}: marked zero but recorded {n} calls")
    return errors


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer):
    """Per-layer metrics as ``{name: (value, unit)}``."""
    spans = tracer.spans
    own = self_times(spans)
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[0]].append(i)

    calls, secs = tracer.calls, tracer.secs
    n = calls.__getitem__

    def dur(idx):
        return sum((spans[i][2] - spans[i][1] for i in idx), 0.0)

    def own_of(prefix):
        return sum((own[i] for i, s in enumerate(spans) if s[0].startswith(prefix)), 0.0)

    seeds = by["continuation.fixed_period"] + by["continuation.fixed_energy"]
    infos = [spans[i][5] or {} for i in seeds]
    accepted = sum(1 for d in infos if d.get("accepted"))
    var_in_seeds = sum(1 for i in by["flow.variational"]
                       if _under(spans, i, SEED_SPANS) >= 0)
    var_in_checks = sum(1 for i in by["flow.variational"]
                        if _under(spans, i, ("nondeg.cross_check",)) >= 0)
    profiles_in_finds = sum(1 for i in by["orbit.radial_profile"]
                            if _under(spans, i, ("orbit.find_closed_orbit",)) >= 0)
    checks = [spans[i][5] for i in by["nondeg.cross_check"] if spans[i][5]
              and "gaps" in spans[i][5]]
    gaps = [g for d in checks for g in d["gaps"]]
    return {
        "model.vector_field.calls": (calls["model.vector_field"], "count"),
        "model.vector_field.us": (1e6 * _ratio(secs["model.vector_field"],
                                               calls["model.vector_field"]), "us"),
        "model.hessian.calls": (calls["model.hessian"], "count"),
        "model.hessian.us": (1e6 * _ratio(secs["model.hessian"],
                                          calls["model.hessian"]), "us"),
        "flow.variational.calls": (n("flow.variational"), "count"),
        "flow.variational.s": (dur(by["flow.variational"]), "s"),
        "flow.variational.self_s": (sum((own[i] for i in by["flow.variational"]), 0.0), "s"),
        "flow.nfev": (tracer.nfev, "count"),
        "flow.steps": (tracer.steps, "count"),
        "flow.integrate.calls": (n("flow.integrate"), "count"),
        "flow.integrate.s": (dur(by["flow.integrate"]), "s"),
        "flow.dense_eval.calls": (calls["flow.dense_eval"], "count"),
        "orbit.find_closed_orbit.calls": (n("orbit.find_closed_orbit"), "count"),
        "orbit.find_closed_orbit.s": (dur(by["orbit.find_closed_orbit"]), "s"),
        "orbit.turning_points.calls": (n("orbit.turning_points"), "count"),
        "orbit.radial_profile.calls": (n("orbit.radial_profile"), "count"),
        "orbit.self_s": (own_of("orbit."), "s"),
        "orbit.profiles_per_target": (
            _ratio(profiles_in_finds, n("orbit.find_closed_orbit")), "count"),
        "actions.k0_hessian.calls": (n("actions.k0_hessian"), "count"),
        "actions.k0_hessian.s": (dur(by["actions.k0_hessian"]), "s"),
        "nondeg.cross_check.calls": (n("nondeg.cross_check"), "count"),
        "nondeg.cross_check.s": (dur(by["nondeg.cross_check"]), "s"),
        "nondeg.variational_per_check": (
            _ratio(var_in_checks, n("nondeg.cross_check")), "count"),
        "nondeg.min_gap": (min(gaps) if gaps else 0.0, "ratio"),
        "nondeg.max_symplectic_residual": (
            max((d["symplectic"] for d in checks), default=0.0), "norm"),
        "continuation.seeds": (len(seeds), "count"),
        "continuation.accepted": (accepted, "count"),
        "continuation.accept_ratio": (_ratio(accepted, len(seeds)), "ratio"),
        "continuation.newton_iters": (
            sum(d.get("newton_iters", 0) for d in infos), "count"),
        "continuation.variational_per_seed": (_ratio(var_in_seeds, len(seeds)), "count"),
        "continuation.variational_per_accepted": (_ratio(var_in_seeds, accepted), "count"),
        "continuation.rejected_s": (
            dur(i for i, d in zip(seeds, infos) if not d.get("accepted")), "s"),
        "continuation.distance.s": (dur(by["continuation.distance"]), "s"),
        "continuation.distinct.s": (dur(by["continuation.distinct"]), "s"),
        "cli.main.s": (dur(by["cli.main"]), "s"),
        "cli.self_s": (own_of("cli."), "s"),
    }

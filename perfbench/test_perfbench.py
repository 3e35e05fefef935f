"""Tiny-size checks of the benchmark itself: the report's shape and metric
names against BENCHMARK.json, the coverage check, count reproducibility, and
the tracer's self-time arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
import os
from types import SimpleNamespace

import pytest

from perfbench import run as bench
from perfbench import workloads as wls
from perfbench.clock import REFERENCE_S, SpeedClock
from perfbench.trace import BOUNDARIES, Tracer, coverage_errors, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _names_units(metrics):
    return {k: v["unit"] for k, v in metrics.items()}


def _tiny(name, workdir):
    """One table case, one survey triple with n <= 2, one single-rung seed."""
    if name == "nondeg_table":
        return wls.table_inputs([wls.HARMONIC], str(workdir))
    if name == "resonance_survey":
        triple = wls.SURVEY_STRATA[2][0]
        return wls.SurveyInputs(((triple, *triple.build()),), wls.survey_targets(n_max=2))
    return wls.multistart_inputs(0.0, eps=1e-4, grid=(1, 1))


TINY = ("nondeg_table", "resonance_survey", "multistart_fp")


@pytest.fixture(scope="module")
def clock():
    with SpeedClock() as c:
        yield c


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced passes of each tiny workload."""
    out = {}
    for name in TINY:
        inputs = _tiny(name, tmp_path_factory.mktemp(name))
        runs = []
        for _ in range(2):
            tally = wls.Tally()
            tracer, secs = bench.traced_pass(wls.WORKLOADS[name], inputs, tally)
            runs.append((tally, tracer, secs))
        out[name] = (inputs, runs)
    return out


def test_workload_names_match_spec(spec):
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wls.WORKLOADS)


@pytest.mark.parametrize("name", TINY)
def test_end_to_end_report_shape(name, spec, traced, clock):
    inputs, _ = traced[name]
    wl = wls.WORKLOADS[name]
    tally, metrics, summary = bench.measure(wl, inputs, lambda: 0.5, 0.0, clock)
    report = json.loads(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                                    "failed": tally.failed, "metrics": metrics}))
    assert report["correct"] is True
    assert report["attempted"] >= 1
    assert _names_units(report["metrics"]) == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in report["metrics"].values())
    for rate, unit, _, _ in wl.rates:
        assert f"{rate}=" in summary and unit in summary
    assert "fail_share=" in summary


@pytest.mark.parametrize("name", TINY)
def test_traced_pass(name, spec, traced):
    _, runs = traced[name]
    tally, tracer, secs = runs[0]
    assert not tally.wrong
    assert coverage_errors(tracer, wls.WORKLOADS[name].active) == []
    metrics = bench.trace_metrics(tracer, secs)
    assert _names_units(metrics) == {m["name"]: m["unit"] for m in spec["per_layer"]}


@pytest.mark.parametrize("name", TINY)
def test_counts_repeat(name, traced):
    _, runs = traced[name]
    counts = []
    for tally, tracer, _ in runs:
        m = bench.trace_metrics(tracer, 1.0)
        counts.append({k: v["value"] for k, v in m.items() if isinstance(v["value"], int)}
                      | {"attempted": tally.attempted, "failed": tally.failed})
    assert counts[0] == counts[1]
    assert counts[0]["flow.nfev"] > 0


def test_tiny_survey_resolves_every_target(traced):
    tally = traced["resonance_survey"][1][0][0]
    assert tally.failed == 0  # the known 9:7 failure lies outside n <= 2
    assert tally.units == tally.attempted == 4


def test_coverage_flags_missing_and_unexpected_calls():
    tracer = Tracer()
    tracer.calls["model.hessian"] = 3
    errors = coverage_errors(tracer, {"flow.integrate"})
    assert any(e.startswith("flow.integrate: marked active") for e in errors)
    assert any(e.startswith("model.hessian: marked zero") for e in errors)
    assert len(errors) == 2
    assert set(BOUNDARIES) >= {"model.hessian", "flow.integrate", "cli.main"}


def test_wrappers_installed_on_every_binding():
    import cforbits
    import cforbits.actions
    import cforbits.cli
    import cforbits.continuation
    import cforbits.flow
    import cforbits.nondeg
    import cforbits.orbit

    bound = [(cforbits.nondeg, "integrate_with_variational"),
             (cforbits.continuation, "integrate_with_variational"),
             (cforbits.orbit, "integrate"), (cforbits.continuation, "integrate"),
             (cforbits.actions, "radial_profile"), (cforbits.actions, "turning_points"),
             (cforbits.cli, "find_closed_orbit"), (cforbits.cli, "cross_check"),
             (cforbits.cli, "multistart"), (cforbits, "find_closed_orbit"),
             (cforbits.flow, "solve_ivp")]
    before = [getattr(m, a) for m, a in bound]
    with Tracer():
        for (m, a), orig in zip(bound, before):
            assert getattr(m, a).__wrapped__ is orig, (m.__name__, a)
        assert hasattr(cforbits.HamiltonianSystem.hessian, "__wrapped__")
        assert hasattr(cforbits.Trajectory.__call__, "__wrapped__")
    assert [getattr(m, a) for m, a in bound] == before
    assert not hasattr(cforbits.HamiltonianSystem.hessian, "__wrapped__")


def test_clock_scales_by_the_samples_around_and_skips_them():
    c = SpeedClock()
    # a sample every second taking 0.1 s: the loop at twice its reference
    # time up to t = 20, then at its reference time
    c.samples = [(t, t + 0.1, (2.0 if t < 20 else 1.0) * REFERENCE_S) for t in range(40)]
    assert c.correct(2.5, 4.5) == pytest.approx((0.5 + 0.9 + 0.4) / 2.0)
    assert c.correct(34.1, 36.1) == pytest.approx(0.9 + 0.9)
    assert c.correct(5.0, 5.05) == pytest.approx(0.0)


def test_self_time_of_nested_spans():
    # a[0, 10] holds b[1, 4] (which holds c[2, 3]) and d[5, 9]; leaf time
    # recorded directly inside a span is not its own time either
    spans = [["a", 0.0, 10.0, -1, 1.0, None],
             ["b", 1.0, 4.0, 0, 0.5, None],
             ["c", 2.0, 3.0, 1, 0.0, None],
             ["d", 5.0, 9.0, 0, 2.0, None]]
    assert self_times(spans) == pytest.approx([2.0, 1.5, 1.0, 2.0])


def test_tracer_records_parents():
    tracer = Tracer()
    inner = tracer._span("inner", lambda: 1, None)
    outer = tracer._span("outer", lambda: inner() + inner(), None)
    assert outer() == 2
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    own = self_times(tracer.spans)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert own[0] == pytest.approx(total - sum(s[2] - s[1] for s in tracer.spans[1:]))


def test_seed_zero_reproduces_demo_table(tmp_path):
    with open(os.path.join(ROOT, "demos", "configs", "nondeg_table.json"),
              encoding="utf-8") as f:
        demo = json.load(f)["cases"]
    inputs = wls.setup_table(0, str(tmp_path))
    with open(inputs.config, encoding="utf-8") as f:
        cases = json.load(f)["cases"]
    assert cases[:-1] == demo
    assert cases[-1]["name"] == "rel_kepler" and cases[-1]["law"]["kind"] == "relativistic"


def test_only_known_failures_leave_the_run_correct(monkeypatch, tmp_path):
    def root_find_error(*args, **kwargs):
        raise wls.cf.RootFindError("resonance residual above tolerance")

    monkeypatch.setattr(wls.cf, "find_closed_orbit", root_find_error)
    triple = wls.Triple("t", ("classical",), ("homogeneous", 0.5), -1.5, "", "2:1")
    inputs = wls.SurveyInputs(((triple, *triple.build()),), ((2, 1), (3, 2)))
    tally = wls.Tally()
    wls.pass_survey(inputs, tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert len(tally.wrong) == 1 and tally.wrong[0].startswith("resonance_survey t 3:2:")

    monkeypatch.setattr(wls.cf, "multistart", root_find_error)
    tally = wls.Tally()
    wls.pass_multistart(wls.ContinuationInputs(None, SimpleNamespace(states=[None]), (0,)),
                        tally)
    assert len(tally.wrong) == tally.failed == 1

    monkeypatch.setattr(wls.cf.cli, "main", lambda argv: 2)
    tally = wls.Tally()
    wls.pass_table(wls.table_inputs([wls.HARMONIC], str(tmp_path)), tally)
    assert len(tally.wrong) == tally.failed == 1


def test_default_survey_holds_both_known_defects():
    labels = {t.label: t.known_failures for t, _, _ in wls.setup_survey(0, None).points}
    assert labels["lc_l0.1_h-0.5"] == "10:7"
    assert labels["relkep_c1_h-0.2"] == "9:7"

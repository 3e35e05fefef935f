"""The arithmetic of tools/bench_pairs.py on canned reports; no benchmark
runs."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = [{"name": "ops_per_min", "unit": "ops/min", "better": "higher",
            "bound": 0.15},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
            "bound": 0.1}]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reports(ops, rss):
    return [{"correct": True, "metrics": {"ops_per_min": {"value": o},
                                          "peak_rss_mb": {"value": r}}}
            for o, r in zip(ops, rss)]


def test_medians_quartiles_wins_and_the_gain_rule(tool):
    parent = reports([100, 104, 98, 102, 101, 99, 103, 100, 97, 105],
                     [90.0] * 10)
    # the change is faster in 9 pairs and ties in the last; its RSS ties in
    # 5 pairs, is higher in 4 and lower in 1
    change = reports([110, 115, 111, 112, 118, 109, 114, 113, 116, 105],
                     [90.0] * 5 + [91.0] * 4 + [89.0])
    ops, rss = tool.summarize(parent, change, METRICS)
    assert ops["parent"] == (100.5, 99.25, 102.75)
    assert ops["change"] == (112.5, 110.25, 114.75)
    assert (ops["wins"], ops["pairs"]) == (9, 10)
    assert ops["gain"]  # 9 of 10 wins, and 12.0 > the parent's IQR 3.5
    assert rss["parent"] == (90.0, 90.0, 90.0)
    assert (rss["wins"], rss["gain"]) == (1, False)
    (line, _) = tool.format_rows([ops, rss])
    assert line == ("ops_per_min: parent 100.5 [99.25, 102.75], change 112.5 "
                    "[110.25, 114.75] ops/min; change wins 9/10; gain rule holds")


def test_the_gain_rule_needs_both_the_wins_and_the_gap(tool):
    parent = reports([100, 104, 98, 102, 101, 99, 103, 100, 97, 105], [90.0] * 10)
    # wins every pair, by less than the parent's IQR
    (ops, _) = tool.summarize(parent, reports([p + 1 for p in (
        100, 104, 98, 102, 101, 99, 103, 100, 97, 105)], [90.0] * 10), METRICS)
    assert ops["wins"] == 10 and not ops["gain"]
    # a median far ahead, with only 8 wins
    (ops, _) = tool.summarize(parent, reports(
        [130] * 8 + [90, 90], [90.0] * 10), METRICS)
    assert ops["wins"] == 8 and not ops["gain"]


def test_one_pair_is_its_own_median_and_quartiles(tool):
    # a one-pair smoke run: one report per side
    ops, rss = tool.summarize(reports([100], [90.0]), reports([110], [91.0]),
                              METRICS)
    assert ops["parent"] == (100, 100, 100)
    assert ops["change"] == (110, 110, 110)
    assert (ops["wins"], ops["pairs"]) == (1, 1)
    # one pair cannot show 9 wins in 10: no verdict either way
    assert ops["gain"] is None and rss["gain"] is None
    assert rss["change"] == (91.0, 91.0, 91.0)
    assert rss["wins"] == 0
    assert tool.format_rows([ops])[0].endswith(
        "change wins 1/1; gain rule needs 10 pairs")


def test_nine_pairs_give_no_verdict(tool):
    # every pair won by far more than the parent's IQR, but 9 pairs cannot
    # show a share of 9 in 10
    parent = reports([100, 104, 98, 102, 101, 99, 103, 100, 97], [90.0] * 9)
    change = reports([150] * 9, [80.0] * 9)
    ops, rss = tool.summarize(parent, change, METRICS)
    assert (ops["wins"], ops["pairs"]) == (9, 9)
    assert ops["gain"] is None and rss["gain"] is None
    assert tool.format_rows([ops])[0].endswith("gain rule needs 10 pairs")


PARENT_OPS = [100, 104, 98, 102, 101, 99, 103, 100, 97, 105]


def test_a_median_worse_by_more_than_the_bound_is_worse(tool):
    # ops 20% slower against a 15% bound; RSS 12% higher against 10%
    ops, rss = tool.summarize(reports(PARENT_OPS, [90.0] * 10),
                              reports([p * 0.8 for p in PARENT_OPS],
                                      [100.8] * 10), METRICS)
    assert ops["regression"] == rss["regression"] == "worse"
    assert tool.format_regressions([ops, rss]) == [
        "ops_per_min: worse (bound 0.15 of the parent's median)",
        "peak_rss_mb: worse (bound 0.1 of the parent's median)"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved(tool):
    # the parent's ops IQR is 40% of its median
    parent = reports([60, 140, 70, 130, 80, 120, 90, 110, 100, 100],
                     [90.0] * 10)
    (ops, _) = tool.summarize(parent, reports([95] * 10, [90.0] * 10),
                              METRICS)
    assert ops["regression"] == "unresolved"
    # unless every change run beats every parent run
    (ops, _) = tool.summarize(parent, reports([141] * 10, [90.0] * 10),
                              METRICS)
    assert ops["regression"] == "no worse"


def test_a_median_within_the_bound_is_no_worse(tool):
    # ops 10% slower against 15%, RSS 5% higher against 10%, and both
    # parent spreads within their bounds
    ops, rss = tool.summarize(reports(PARENT_OPS, [90.0] * 10),
                              reports([p * 0.9 for p in PARENT_OPS],
                                      [94.5] * 10), METRICS)
    assert ops["regression"] == rss["regression"] == "no worse"


def test_a_run_that_is_not_correct_is_refused(tool, monkeypatch):
    class Done:
        returncode = 1
        stdout = '{"correct": false, "metrics": {}}\n'
        stderr = "wrong: nondeg_table harmonic\n"

    monkeypatch.setattr(tool.subprocess, "run", lambda *a, **k: Done)
    with pytest.raises(RuntimeError, match="refused"):
        tool.run_once(".", "nondeg_table", 0, 5)


def traced(counts):
    """A traced report with the counts {name: value} and a wall time."""
    metrics = {name: {"value": v, "unit": "count"}
               for name, v in counts.items()}
    metrics["trace.pass_s"] = {"value": 0.2, "unit": "s"}
    return {"correct": True, "metrics": metrics}


def test_traced_counts_that_differ(tool):
    parent = traced({"flow.nfev": 16408, "flow.variational.calls": 3,
                     "continuation.newton_iters": 3})
    change = traced({"flow.nfev": 14510, "flow.variational.calls": 2,
                     "continuation.newton_iters": 3})
    change["metrics"]["trace.pass_s"]["value"] = 0.12  # not a count
    assert tool.count_differences(parent, change) == [
        "flow.nfev: parent 16408, change 14510",
        "flow.variational.calls: parent 3, change 2"]
    assert tool.count_differences(parent, parent) == []
    # a count in one report only
    del change["metrics"]["continuation.newton_iters"]
    assert tool.count_differences(parent, change)[-1] == (
        "continuation.newton_iters: parent 3, change None")


def test_trace_adds_one_traced_run_per_side(tool, monkeypatch, capsys):
    # canned runs: no benchmark runs, and BENCHMARK.json from this checkout
    runs = []
    change = TOOL.parents[1]

    def run_once(checkout, workload, seed, seconds, trace=0):
        side = "change" if checkout == change else "parent"
        runs.append((side, trace))
        if trace:
            return traced({"flow.nfev": 14510 if side == "change" else 16408})
        return {"correct": True, "metrics": {
            "ops_per_min": {"value": 110 if side == "change" else 100},
            "setup_s": {"value": 0.5}, "peak_rss_mb": {"value": 90.0},
            "ok_share": {"value": 1.0}}}

    monkeypatch.setattr(tool, "run_once", run_once)
    args = ["parent", str(change), "--workload", "spatial_fe", "--pairs", "2"]
    assert tool.main(args + ["--trace"]) == 0
    assert runs == [("parent", 0), ("change", 0), ("change", 0),
                    ("parent", 0), ("parent", 1), ("change", 1)]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "flow.nfev: parent 16408, change 14510")
    runs.clear()
    assert tool.main(args) == 0
    assert [trace for _, trace in runs] == [0] * 4


def with_kernel_times(report, vector_field_us, hessian_us):
    report["metrics"]["model.vector_field.us"] = {"value": vector_field_us,
                                                  "unit": "us"}
    report["metrics"]["model.hessian.us"] = {"value": hessian_us, "unit": "us"}
    return report


def test_kernel_times_of_both_sides(tool):
    parent = with_kernel_times(traced({"flow.nfev": 6312}), 2.4137, 3.05)
    change = with_kernel_times(traced({"flow.nfev": 6312}), 1.9, 2.6012)
    assert tool.kernel_times(parent, change) == [
        "model.vector_field.us: parent 2.41, change 1.9",
        "model.hessian.us: parent 3.05, change 2.6"]
    # the times are printed whether or not they differ, and not as counts
    assert tool.count_differences(parent, change) == []
    # a report without them
    assert tool.kernel_times(traced({}), change) == [
        "model.vector_field.us: parent None, change 1.9",
        "model.hessian.us: parent None, change 2.6"]


def test_trace_prints_the_kernel_times_before_the_counts(tool, monkeypatch,
                                                         capsys):
    change = TOOL.parents[1]

    def run_once(checkout, workload, seed, seconds, trace=0):
        side = "change" if checkout == change else "parent"
        if trace:
            return with_kernel_times(
                traced({"flow.nfev": 6312, "model.hessian.calls": 2000}),
                *((1.7, 2.2) if side == "change" else (2.0, 2.5)))
        return {"correct": True, "metrics": {
            "ops_per_min": {"value": 110 if side == "change" else 100},
            "setup_s": {"value": 0.5}, "peak_rss_mb": {"value": 90.0},
            "ok_share": {"value": 1.0}}}

    monkeypatch.setattr(tool, "run_once", run_once)
    assert tool.main(["parent", str(change), "--workload", "nondeg_table",
                      "--pairs", "2", "--trace"]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "model.vector_field.us: parent 2, change 1.7",
        "model.hessian.us: parent 2.5, change 2.2",
        "traced counts: all the same"]

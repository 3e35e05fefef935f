"""The arithmetic of tools/bench_pairs.py on canned reports; no benchmark
runs."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = [{"name": "ops_per_min", "unit": "ops/min", "better": "higher"},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


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


def test_a_run_that_is_not_correct_is_refused(tool, monkeypatch):
    class Done:
        returncode = 1
        stdout = '{"correct": false, "metrics": {}}\n'
        stderr = "wrong: nondeg_table harmonic\n"

    monkeypatch.setattr(tool.subprocess, "run", lambda *a, **k: Done)
    with pytest.raises(RuntimeError, match="refused"):
        tool.run_once(".", "nondeg_table", 0, 5)

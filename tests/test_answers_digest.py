import json
import math
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "answers_digest.py"
SUBSET = ("--parts", "survey", "pool", "--limit", "1")


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], check=True,
                          capture_output=True).stdout


def test_two_runs_are_byte_identical_and_compare_as_such(tmp_path):
    first, second = run(*SUBSET), run(*SUBSET)
    assert first == second
    doc = json.loads(first)
    assert sorted(doc) == ["pool", "survey"]
    assert list(doc["pool"]) == ["harmonic"]
    # the first survey point: alpha = 0.5 at h = -1.5, three of its 28
    # targets found
    found = [v for v in doc["survey"].values() if "error" not in v]
    assert len(doc["survey"]) == 28 and len(found) == 3
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    # a digest made of hex digits, as the demos part holds
    doc["demos"] = {"x.json": {"sha256": {"a.csv": "ab12"}}}
    old.write_text(json.dumps(doc))
    lines = run("--compare", str(old), str(old)).decode().splitlines()
    assert "survey.states: bit-identical (444 values)" in lines
    assert all(": bit-identical (" in line for line in lines)
    # one period moved by one ulp, one verdict and one hash changed
    entry = next(k for k, v in doc["survey"].items() if "T" in v)
    T = float.fromhex(doc["survey"][entry]["T"])
    T2 = math.nextafter(T, math.inf)
    doc["survey"][entry]["T"] = T2.hex()
    doc["pool"]["harmonic"]["fixed_period_verdict"] = "nondegenerate"
    doc["demos"]["x.json"]["sha256"]["a.csv"] = "ab13"
    new.write_text(json.dumps(doc))
    lines = run("--compare", str(old), str(new)).decode().splitlines()
    assert (f"survey.T: 1 of 3 values differ, max abs {T2 - T:.3g}, "
            f"max rel {(T2 - T) / T2:.3g}") in lines
    assert ("pool.fixed_period_verdict: 1 of 1 values differ; not finite "
            "floats in harmonic") in lines
    assert ("demos.sha256.a.csv: 1 of 1 values differ; not finite "
            "floats in x.json") in lines
    assert "survey.z0: bit-identical (12 values)" in lines

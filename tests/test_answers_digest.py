import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "answers_digest.py"
SUBSET = ("--parts", "survey", "pool", "--limit", "1")


def run(*args, code=0):
    """The tool's output, after checking its exit status."""
    done = subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True)
    assert done.returncode == code, done.stderr
    return done.stdout


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
    lines = run("--compare", str(old), str(new), code=1).decode().splitlines()
    assert (f"survey.T: 1 of 3 values differ, max abs {T2 - T:.3g}, "
            f"max rel {(T2 - T) / T2:.3g}") in lines
    assert ("pool.fixed_period_verdict: 1 of 1 values differ; not finite "
            "floats in harmonic") in lines
    assert ("demos.sha256.a.csv: 1 of 1 values differ; not finite "
            "floats in x.json") in lines
    assert "survey.z0: bit-identical (12 values)" in lines
    # a field in one digest only
    del doc["demos"]
    new.write_text(json.dumps(doc))
    lines = run("--compare", str(old), str(new), code=1).decode().splitlines()
    assert "demos.sha256.a.csv: only in old" in lines


def load_tool(monkeypatch):
    # the tool puts the checkout on sys.path when it is imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("answers_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_continue_demos_record_their_seeds(tmp_path, monkeypatch):
    # a stand-in for the continue command that writes two seeds, one of them
    # in the form of an older continuation.json without jacobian_reuses and
    # the fields after it
    tool = load_tool(monkeypatch)
    (tmp_path / "demos" / "configs").mkdir(parents=True)
    (tmp_path / "demos" / "configs" / "continue_x.json").write_text("{}")
    seeds = [{"seed_id": 0, "accepted": True, "reason": "ok",
              "z0": [1.5, -0.0, 0.0, 0.25],
              "period": 13.9, "residual": 8.5e-11,
              "distance_to_manifold": 0.005, "newton_iters": 3,
              "variational_solves": 2, "jacobian_reuses": 1,
              "state_shots": 0, "half_condition": 331.2,
              "contractions": [0.0086, 6.3e-4, 1.0e-3],
              "reduced_gradient": 3.2e-13,
              "reduced_distance": 9.8e-14, "history": []},
             {"seed_id": 1, "accepted": False,
              "reason": "stagnation at eps=0.0001",
              "z0": [-1.5, 0.0, 0.0, -0.25], "period": 13.9,
              "residual": 7.8e-4, "distance_to_manifold": None,
              "newton_iters": 14, "variational_solves": 4}]

    def main(argv):
        out = Path(argv[argv.index("--out") + 1])
        (out / "continuation.json").write_text(json.dumps({"results": seeds}))
        return 0

    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool.cli, "main", main)
    old = tool.digest(["demos"], None)
    (entry,) = old["demos"].values()
    assert list(entry["sha256"]) == ["continuation.json"]
    first, second = entry["seeds"]
    assert set(first) == set(tool.SEED_FIELDS)
    assert set(tool.SEED_FIELDS) - set(second) == {
        "jacobian_reuses", "state_shots", "half_condition", "contractions",
        "reduced_gradient", "reduced_distance"}
    assert first["z0"][3] == (0.25).hex() and second["residual"] == (7.8e-4).hex()
    seeds[1]["z0"][0] = math.nextafter(-1.5, 0.0)
    lines, same = tool.compare(old, tool.digest(["demos"], None))
    assert not same
    assert "demos.seeds.reason: bit-identical (2 values)" in lines
    assert (f"demos.seeds.z0: 1 of 8 values differ, max abs "
            f"{1.5 - abs(seeds[1]['z0'][0]):.3g}, max rel "
            f"{(1.5 - abs(seeds[1]['z0'][0])) / 1.5:.3g}") in lines
    assert "demos.seeds.state_shots: bit-identical (1 values)" in lines

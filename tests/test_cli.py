import csv
import json
import logging
from pathlib import Path

import numpy as np
import pytest

import cforbits.cli
from cforbits.cli import (
    EXIT_DISAGREEMENT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    load_config,
    main,
)
from cforbits.model import KineticLaw, Potential
from cforbits.orbit import find_closed_orbit

DEMO_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


KEPLER_ORBIT_CFG = {
    "schema_version": 1,
    "law": {"kind": "classical"},
    "potential": {"kind": "homogeneous", "kappa": 1.0, "alpha": 1.0},
    "orbit": {"k": 1, "n": 1, "h": -0.375, "L": 1.0},
}


class TestValidation:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["orbit", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["orbit", "--config", str(p),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = dict(KEPLER_ORBIT_CFG)
        cfg["surprise"] = 1
        path = write_cfg(tmp_path, cfg)
        assert main(["orbit", "--config", path,
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "validation" in capsys.readouterr().err

    def test_missing_schema_version(self, tmp_path):
        cfg = {k: v for k, v in KEPLER_ORBIT_CFG.items()
               if k != "schema_version"}
        path = write_cfg(tmp_path, cfg)
        assert main(["orbit", "--config", path,
                     "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_bad_alpha_is_validation_error(self, tmp_path):
        cfg = json.loads(json.dumps(KEPLER_ORBIT_CFG))
        cfg["potential"]["alpha"] = 2.5
        path = write_cfg(tmp_path, cfg)
        assert main(["orbit", "--config", path,
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert (tmp_path / "manifest.json").exists()

    # keys the schema no longer accepts
    @pytest.mark.parametrize("extra", [
        {"checks": ["fixed_period/actions_route"]},
        {"continuation": {"refine_distance": True}},
    ], ids=["checks", "refine_distance"])
    def test_checks_key_rejected(self, tmp_path, extra):
        cfg = dict(KEPLER_ORBIT_CFG, **extra)
        path = write_cfg(tmp_path, cfg)
        assert main(["orbit", "--config", path,
                     "--out", str(tmp_path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.name)
    def test_demo_config_is_valid(self, path):
        assert load_config(path)["schema_version"] == 1

    def test_limit_classical_rejects_classical_law(self, tmp_path):
        cfg = json.loads(json.dumps(KEPLER_ORBIT_CFG))
        cfg["c_values"] = [5.0, 10.0]
        path = write_cfg(tmp_path, cfg)
        assert main(["limit-classical", "--config", path,
                     "--out", str(tmp_path)]) == EXIT_VALIDATION


class TestOrbitCommand:
    def test_artifacts_and_values(self, tmp_path):
        path = write_cfg(tmp_path, KEPLER_ORBIT_CFG)
        out = tmp_path / "out"
        assert main(["orbit", "--config", path, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "orbit.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["r_min"] == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert summary["r_max"] == pytest.approx(2.0, rel=1e-9)
        with open(out / "trajectory.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["t", "x1", "x2", "p1", "p2"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"orbit.json", "trajectory.csv"}
        assert len(manifest["config_sha256"]) == 64

    def test_rows_match_pointwise_states(self, tmp_path):
        # the CSV comes from one states() call over the grid; each row has
        # the digits of one state_at() call at its time
        cfg = {"schema_version": 1,
               "potential": {"kind": "homogeneous", "alpha": 0.5},
               "orbit": {"k": 3, "n": 4, "h": -1.5},
               "output": {"trajectory_samples": 301}}
        out = tmp_path / "out"
        assert main(["orbit", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_OK
        with open(out / "trajectory.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        orbit = find_closed_orbit(KineticLaw.classical(),
                                  Potential.homogeneous(1.0, 0.5), 3, 4, -1.5)
        loop = [[f"{t:.12g}"] + [f"{v:.12g}" for v in orbit.state_at(t)]
                for t in np.linspace(0.0, orbit.T, 301)]
        assert rows == loop

    def test_csv_is_crlf_terminated(self, tmp_path):
        path = write_cfg(tmp_path, KEPLER_ORBIT_CFG)
        out = tmp_path / "out"
        main(["orbit", "--config", path, "--out", str(out)])
        raw = (out / "trajectory.csv").read_bytes()
        assert raw.count(b"\r\n") >= 2
        assert b"\n" not in raw.replace(b"\r\n", b"")

    def test_reproducible_runs_are_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path, KEPLER_ORBIT_CFG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["orbit", "--config", path, "--out", str(out),
                         "--reproducible"]) == EXIT_OK
            outs.append(out)
        for fname in ("orbit.json", "trajectory.csv", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == \
                   (outs[1] / fname).read_bytes()

    def test_numerical_failure_exit_code(self, tmp_path):
        # apsidal target pi/2 is unattainable for alpha = 0.5
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 1, "n": 2, "h": -1.5},
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["orbit", "--config", path,
                     "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL

    def test_library_warnings_reach_the_manifest(self, tmp_path, monkeypatch):
        find = cforbits.cli.find_closed_orbit

        def warning_find(*args, **kwargs):
            logging.getLogger("cforbits.orbit").warning("bracket %d of %d", 1, 2)
            return find(*args, **kwargs)

        monkeypatch.setattr(cforbits.cli, "find_closed_orbit", warning_find)
        handlers = list(logging.getLogger("cforbits").handlers)
        path = write_cfg(tmp_path, KEPLER_ORBIT_CFG)
        out = tmp_path / "out"
        assert main(["orbit", "--config", path, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == ["cforbits.orbit: bracket 1 of 2"]
        assert logging.getLogger("cforbits").handlers == handlers


class TestNondegCommand:
    def test_two_cases_with_expected_verdicts(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "cases": [
                {"name": "kepler",
                 "potential": {"kind": "homogeneous", "alpha": 1.0},
                 "orbit": {"k": 1, "n": 1, "h": -0.375, "L": 1.0}},
                {"name": "a05",
                 "potential": {"kind": "homogeneous", "alpha": 0.5},
                 "orbit": {"k": 3, "n": 4, "h": -1.5}},
            ],
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["nondeg", "--config", path, "--out", str(out)]) == EXIT_OK
        verdicts = {v["case"]: v for v in
                    json.loads((out / "nondeg.json").read_text())["verdicts"]}
        assert verdicts["kepler"]["fixed_period"] == "degenerate"
        assert verdicts["kepler"]["planar_kernel_dim"] == 3
        assert verdicts["a05"]["fixed_period"] == "nondegenerate"
        assert verdicts["a05"]["spatial_kernel_dim"] == 4
        assert all(0.0 <= v["radial_defect"] <= 1e-9
                   for v in verdicts.values())
        with open(out / "nondeg.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["case", "problem", "route", "value", "verdict",
                           "gap", "symplectic_residual"]
        assert len(rows) == 1 + 12  # header + 6 rows per case


class TestLimitClassicalCommand:
    def test_second_order_convergence(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "law": {"kind": "relativistic", "m": 1.0},
            "potential": {"kind": "homogeneous", "alpha": 1.0},
            "orbit": {"k": 1, "n": 1, "h": -0.375, "L": 1.0},
            "c_values": [5.0, 10.0, 20.0, 40.0],
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["limit-classical", "--config", path,
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "limit_classical.json").read_text())
        assert abs(payload["tau_order"] - 2.0) <= 0.3
        assert abs(payload["phi_order"] - 2.0) <= 0.3
        assert payload["phi_errors"][-1] <= 1e-3


class TestContinueCommand:
    def test_degenerate_base_refused_without_override(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 1.0},
            "orbit": {"k": 1, "n": 1, "h": -0.375, "L": 1.0},
            "perturbation": {"family": "uniform_electric", "eps": 1e-4,
                             "profile": "constant"},
            "continuation": {"mode": "fixed_energy"},
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["continue", "--config", path,
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION

    def test_spatial_cosine_electric_run(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 4, "n": 5, "h": -1.9},
            "perturbation": {"family": "uniform_electric", "eps": 1e-4,
                             "profile": "cosine",
                             "T_forcing": "orbit_period",
                             "e_vec": [1.0, 0.0, 0.0]},
            "continuation": {"mode": "fixed_period", "group": "SO3",
                             "count_rot": 1, "count_shift": 2},
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["continue", "--config", path, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "continuation.json").read_text())
        assert payload["n_accepted"] >= 1
        assert payload["n_distinct"] >= 1
        ok = [r for r in payload["results"] if r["accepted"]]
        assert all(r["residual"] <= 1e-7 for r in ok)
        for r in payload["results"]:
            assert len(r["history"]) == r["newton_iters"]
            for eps, lam, res, accepted in r["history"]:
                assert eps > 0.0 and lam > 0.0 and isinstance(accepted, bool)
                assert res is None or res >= 0.0

    def test_planar_rotating_frame_run(self, tmp_path):
        # the one family the command continues in the plane (planar group)
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 4, "n": 5, "h": -1.9},
            "perturbation": {"family": "rotating_frame", "eps": 1e-4},
            "continuation": {"mode": "fixed_energy",
                             "count_rot": 1, "count_shift": 1},
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["continue", "--config", path, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "continuation.json").read_text())
        assert payload["n_accepted"] == 1
        (r,) = payload["results"]
        assert r["distance_to_manifold"] <= 0.1

import csv
import json
import logging
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cforbits.cli
from cforbits.cli import (
    EXIT_DISAGREEMENT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    load_config,
    main,
)
from cforbits.continuation import ShootingProblem, multistart
from cforbits.errors import RouteDisagreementError
from cforbits.model import HamiltonianSystem, KineticLaw, Perturbation, \
    Potential
from cforbits.orbit import find_closed_orbit, manifold_samples

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos" / "configs"
DEMO_CONFIGS = sorted(DEMO_DIR.glob("*.json"))


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
        # a manifest without a config hash: there was nothing to hash
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_sha256"] is None
        assert manifest["files"] == []

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["orbit", "--config", str(p),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert (tmp_path / "manifest.json").exists()

    def test_config_not_utf8(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"schema_version": \xff}')
        assert main(["orbit", "--config", str(p),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert (tmp_path / "manifest.json").exists()

    def test_shipped_schema_is_a_valid_schema(self):
        schema = cforbits.cli._schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("cfg", [
        dict(KEPLER_ORBIT_CFG, surprise=1),
        {k: v for k, v in KEPLER_ORBIT_CFG.items() if k != "schema_version"},
        dict(KEPLER_ORBIT_CFG, law={"kind": "classical", "c": 2.0}),
        dict(KEPLER_ORBIT_CFG, potential={"kind": "levi_civita", "alpha": 1.0}),
        dict(KEPLER_ORBIT_CFG, orbit={"k": "1", "n": 1, "h": -0.375}),
    ], ids=["unknown_key", "no_schema_version", "classical_c",
            "levi_civita_alpha", "string_k"])
    def test_refusal_message_is_jsonschemas(self, tmp_path, cfg):
        # the prebuilt validator refuses with the message jsonschema.validate
        # gives for the same config and schema
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(cfg, cforbits.cli._schema())
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, cfg))
        assert str(exc.value) == f"config validation failed: {ref.value.message}"

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
        {"tolerances": {"integrate_tol": 1e-10}},
        {"continuation": {"group": "planar"}},
        {"law": {"kind": "classical", "c": 2.0}},
    ], ids=["checks", "refine_distance", "tolerances", "planar_group",
            "classical_c"])
    def test_checks_key_rejected(self, tmp_path, extra):
        cfg = dict(KEPLER_ORBIT_CFG, **extra)
        path = write_cfg(tmp_path, cfg)
        assert main(["orbit", "--config", path,
                     "--out", str(tmp_path)]) == EXIT_VALIDATION

    # each command refuses a config without a block it reads, before any
    # numerical work
    @pytest.mark.parametrize("command, missing, extra", [
        ("continue", "perturbation", {}),
        ("orbit", "potential", {}),
        ("limit-classical", "orbit",
         {"law": {"kind": "relativistic"}, "c_values": [5.0, 10.0]}),
    ], ids=["continue", "orbit", "limit_classical"])
    def test_missing_block_is_validation_error(self, tmp_path, capsys,
                                               command, missing, extra):
        cfg = {k: v for k, v in dict(KEPLER_ORBIT_CFG, **extra).items()
               if k != missing}
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert missing in capsys.readouterr().err
        assert (out / "manifest.json").exists()

    # keys the block's kind or family does not read
    @pytest.mark.parametrize("command, block, extra", [
        ("orbit", "potential", {"kind": "levi_civita", "alpha": 1.0}),
        ("orbit", "potential", {"kind": "homogeneous", "alpha": 1.0,
                                "lambda": 0.1}),
        ("continue", "perturbation", {"family": "rotating_frame", "eps": 1e-4,
                                      "e_vec": [1.0, 0.0]}),
        ("continue", "perturbation", {"family": "rotating_frame", "eps": 1e-4,
                                      "B0": [0.0, 0.0, 1.0]}),
        ("continue", "perturbation", {"family": "rotating_frame", "eps": 1e-4,
                                      "profile": "constant"}),
        ("continue", "perturbation", {"family": "rotating_frame", "eps": 1e-4,
                                      "T_forcing": 2.0}),
        ("continue", "perturbation", {"family": "uniform_electric",
                                      "eps": 1e-4, "T_forcing": 2.0}),
        ("continue", "perturbation", {"family": "uniform_electric",
                                      "eps": 1e-4, "profile": "constant",
                                      "T_forcing": 2.0}),
    ], ids=["levi_civita_alpha", "homogeneous_lambda", "rotating_e_vec",
            "rotating_B0", "rotating_profile", "rotating_T_forcing",
            "T_forcing_without_profile", "constant_profile_T_forcing"])
    def test_ignored_key_rejected(self, tmp_path, capsys, command, block,
                                  extra):
        cfg = dict(KEPLER_ORBIT_CFG, **{block: extra})
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "validation" in capsys.readouterr().err
        assert (out / "manifest.json").exists()

    def test_constant_apsidal_angle_without_L(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(KEPLER_ORBIT_CFG))
        del cfg["orbit"]["L"]
        out = tmp_path / "out"
        assert main(["nondeg", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "L_seed" in capsys.readouterr().err
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.name)
    def test_demo_config_is_valid(self, path):
        assert load_config(path)["schema_version"] == 1

    def test_limit_classical_refuses_law_c(self, tmp_path, capsys):
        # the command sweeps c_values, so a law.c would go unread
        cfg = {
            "schema_version": 1,
            "law": {"kind": "relativistic", "m": 1.0, "c": 3.0},
            "potential": {"kind": "homogeneous", "alpha": 1.0},
            "orbit": {"k": 1, "n": 1, "h": -0.375, "L": 1.0},
            "c_values": [5.0, 10.0],
        }
        out = tmp_path / "out"
        assert main(["limit-classical", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "law.c" in capsys.readouterr().err
        assert (out / "manifest.json").exists()

    def test_group_with_planar_electric_vector_is_validation_error(
            self, tmp_path, capsys):
        # a planar electric vector continues in the plane, so a group would
        # be ignored
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 4, "n": 5, "h": -1.9},
            "perturbation": {"family": "uniform_electric", "eps": 1e-4,
                             "e_vec": [1.0, 0.0]},
            "continuation": {"group": "SO3"},
        }
        out = tmp_path / "out"
        assert main(["continue", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "continuation.group" in capsys.readouterr().err
        assert (out / "manifest.json").exists()

    def test_limit_classical_refuses_repeated_c_values(self, tmp_path, capsys):
        # a repeated c makes the fit of the convergence orders rank-deficient
        cfg = json.loads((DEMO_DIR / "limit_classical.json").read_text())
        cfg["c_values"] = [5.0, 5.0]
        out = tmp_path / "out"
        assert main(["limit-classical", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "non-unique" in capsys.readouterr().err
        assert (out / "manifest.json").exists()
        assert not (out / "limit_classical.json").exists()

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
        # the digits of one states() call at its time alone
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
        loop = [[f"{t:.12g}"] + [f"{v:.12g}" for v in orbit.states(t)]
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

    def test_unmapped_exception_leaves_a_manifest(self, tmp_path, monkeypatch):
        def failing_find(*args, **kwargs):
            raise RuntimeError("integration failed: step size too small")

        monkeypatch.setattr(cforbits.cli, "find_closed_orbit", failing_find)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="integration failed"):
            main(["orbit", "--config", write_cfg(tmp_path, KEPLER_ORBIT_CFG),
                  "--out", str(out)])
        assert json.loads((out / "manifest.json").read_text())["files"] == []


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

    # alpha = 0.5 at h = -1.5: 3:4 exists, and pi/2 (1:2) is out of range
    CASES = [{"name": "a05",
              "potential": {"kind": "homogeneous", "alpha": 0.5},
              "orbit": {"k": 3, "n": 4, "h": -1.5}},
             {"name": "a05_out_of_range",
              "potential": {"kind": "homogeneous", "alpha": 0.5},
              "orbit": {"k": 1, "n": 2, "h": -1.5}}]

    def test_a_numerically_failed_case_keeps_the_others(self, tmp_path,
                                                         capsys):
        path = write_cfg(tmp_path, {"schema_version": 1, "cases": self.CASES})
        out = tmp_path / "out"
        assert main(["nondeg", "--config", path, "--out", str(out)]) == \
            EXIT_NUMERICAL
        good, bad = json.loads((out / "nondeg.json").read_text())["verdicts"]
        assert good["case"] == "a05" and good["fixed_period"] == "nondegenerate"
        assert sorted(bad) == ["case", "error"]
        assert bad["case"] == "a05_out_of_range"
        assert bad["error"].startswith("[TargetOutOfRangeError] ")
        with open(out / "nondeg.csv", newline="") as f:
            assert len(list(csv.reader(f))) == 1 + 6  # header + one case
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == ["nondeg.csv", "nondeg.json"]
        assert manifest["warnings"] == [f"a05_out_of_range: {bad['error']}"]
        assert f"error: a05_out_of_range: {bad['error']}" in capsys.readouterr().err

    def test_a_numerical_failure_wins_over_a_disagreement(self, tmp_path,
                                                          monkeypatch):
        def disagreeing(orbit):
            raise RouteDisagreementError("routes disagree")

        monkeypatch.setattr(cforbits.cli, "cross_check", disagreeing)
        path = write_cfg(tmp_path, {"schema_version": 1, "cases": self.CASES})
        out = tmp_path / "out"
        assert main(["nondeg", "--config", path, "--out", str(out)]) == \
            EXIT_NUMERICAL
        errors = [v["error"] for v in
                  json.loads((out / "nondeg.json").read_text())["verdicts"]]
        assert errors[0] == "routes disagree"
        path = write_cfg(tmp_path, {"schema_version": 1, "cases": self.CASES[:1]})
        assert main(["nondeg", "--config", path, "--out", str(out)]) == \
            EXIT_DISAGREEMENT


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


def run_continue(tmp_path, cfg):
    """continuation.json of a successful continue run of cfg."""
    out = tmp_path / "out"
    assert main(["continue", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == EXIT_OK
    return json.loads((out / "continuation.json").read_text())


def check_seed_records(payload, one_rung_eps=None):
    """The per-seed records of a spatial fixed-period run's
    continuation.json account for their shots, solves and steps; with
    one_rung_eps, every continued seed made the one run at that eps."""
    for r in payload["results"]:
        assert len(r["history"]) == r["newton_iters"]
        assert len(r["z0"]) == 6
        assert r["reduced_gradient"] >= 0.0
        if r["reason"].startswith("off the fixed set"):
            # rejected unshot, off the fixed set of the reversor
            assert not r["accepted"]
            assert r["newton_iters"] == r["variational_solves"] == 0
            assert r["state_shots"] == 0 and r["rung_starts"] == []
            assert r["residual"] is None and r["half_condition"] is None
            continue
        if r["accepted"]:
            assert r["residual"] <= 1e-7
            assert r["half_condition"] >= 1.0
        for eps, res, accepted in r["history"]:
            assert eps > 0.0 and isinstance(accepted, bool)
            assert res is None or res >= 0.0
        # a rejected trial ends its run, so every trial steps from a point
        # of its own; one state-only half-period shot per run of the
        # driver and one per trial shot
        h = r["history"]
        assert r["variational_solves"] == r["newton_iters"]
        assert r["state_shots"] == (len(r["rung_starts"])
                                    + sum(1 for e in h if e[1] is not None))
        assert all(eps > 0.0 and res >= 0.0 for eps, res in r["rung_starts"])
        if one_rung_eps is not None:
            assert [eps for eps, _ in r["rung_starts"]] == [one_rung_eps]


def fixed_set_run(config, tmp_path, names):
    """continuation.json of a --reproducible continue run of config, whose
    seed 0 alone lies on the reversor's fixed set: asserts that seed 0 is
    accepted and every other seed rejected unshot, and that the run and a
    second one both write the files names, with the same bytes."""
    runs = []
    for out in (tmp_path / "first", tmp_path / "second"):
        assert main(["continue", "--config", config, "--out", str(out),
                     "--reproducible"]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == names
        runs.append(out)
    for name in names:
        assert ((runs[0] / name).read_bytes()
                == (runs[1] / name).read_bytes()), name
    payload = json.loads((runs[0] / "continuation.json").read_text())
    first, *others = payload["results"]
    assert first["accepted"] and first["residual"] <= 1e-9
    assert all(r["reason"].startswith("off the fixed set") for r in others)
    return payload


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

    def test_cosine_profile_without_period_is_validation_error(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 4, "n": 5, "h": -1.9},
            "perturbation": {"family": "uniform_electric", "eps": 1e-4,
                             "profile": "cosine"},
        }
        out = tmp_path / "out"
        assert main(["continue", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert (out / "manifest.json").exists()

    def test_group_with_rotating_frame_is_validation_error(self, tmp_path):
        # the rotating frame continues in the plane, so a group would be
        # ignored
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 4, "n": 5, "h": -1.9},
            "perturbation": {"family": "rotating_frame", "eps": 1e-4},
            "continuation": {"group": "SO3"},
        }
        out = tmp_path / "out"
        assert main(["continue", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert (out / "manifest.json").exists()

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
        payload = run_continue(tmp_path, cfg)
        assert payload["n_accepted"] >= 1
        assert payload["n_distinct"] >= 1
        # the apogee seed lies on the fixed set of the reversor; the seed
        # shifted by tau/2, a perigee at -4 pi/5 from the field's line,
        # lies off it and is rejected unshot
        assert [r["accepted"] for r in payload["results"]] == [True, False]
        check_seed_records(payload, one_rung_eps=1e-4)

    def test_spatial_constant_electric_run(self, tmp_path):
        # the spatial run in a constant field, whose reduced functional is
        # constant at first order: the tau/2 seed lies off the fixed set all
        # the same
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 4, "n": 5, "h": -1.9},
            "perturbation": {"family": "uniform_electric", "eps": 1e-4,
                             "profile": "constant",
                             "e_vec": [1.0, 0.0, 0.0]},
            "continuation": {"mode": "fixed_period", "group": "SO3",
                             "count_rot": 1, "count_shift": 2},
        }
        payload = run_continue(tmp_path, cfg)
        assert payload["n_accepted"] >= 1
        assert [r["accepted"] for r in payload["results"]] == [True, False]
        check_seed_records(payload, one_rung_eps=1e-4)

    def test_demo_run_changes_only_the_seed_on_the_fixed_set(
            self, tmp_path):
        # continue_alpha05.json: seed 0, the apogee on the field's line,
        # lies on Fix(R_0) and is continued; the other seven (its tau/2
        # shift and the SO(3)-turned seeds) lie off it and are rejected
        # unshot
        payload = fixed_set_run(
            str(DEMO_DIR / "continue_alpha05.json"), tmp_path,
            ["continuation.json", "continued_seed0.csv", "manifest.json"])
        assert payload["n_seeds"] == 8 and payload["n_accepted"] == 1

    def test_constant_field_run_changes_only_the_seed_on_the_fixed_set(
            self, tmp_path):
        # the demo run in a constant field, on a 2 x 2 grid, whose reduced
        # functional is constant at first order: still only seed 0 lies on
        # the fixed set and is continued
        cfg = json.loads((DEMO_DIR / "continue_alpha05.json").read_text())
        cfg["perturbation"] = {"family": "uniform_electric", "eps": 1e-3,
                               "profile": "constant",
                               "e_vec": [1.0, 0.0, 0.0]}
        cfg["continuation"].update(count_rot=2, count_shift=2)
        payload = fixed_set_run(
            write_cfg(tmp_path, cfg), tmp_path,
            ["continuation.json", "continued_seed0.csv", "manifest.json"])
        assert payload["n_seeds"] == 4
        check_seed_records(payload)

    def test_rung_starts_per_seed(self, tmp_path):
        # the apogee on x1 in a constant field along x1 at eps = 1e-2: the
        # direct attempt fails, and the seed is continued along the eps
        # ladder, one (eps, first-shot residual) pair per run
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 4, "n": 5, "h": -1.9},
            "perturbation": {"family": "uniform_electric", "eps": 1e-2,
                             "profile": "constant",
                             "e_vec": [1.0, 0.0, 0.0]},
            "continuation": {"mode": "fixed_period",
                             "count_rot": 1, "count_shift": 1},
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["continue", "--config", path, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "continuation.json").read_text())
        (r,) = payload["results"]
        assert r["accepted"]
        rungs = [eps for eps, _ in r["rung_starts"]]
        assert rungs == pytest.approx(
            [1e-2, 1e-4, 10**-3.5, 1e-3, 10**-2.5, 1e-2], rel=1e-12)
        assert {eps for eps, *_ in r["history"]} <= set(rungs)
        assert all(res >= 0.0 for _, res in r["rung_starts"])
        check_seed_records(payload)

    def test_planar_electric_vector_run_is_multistart(self, tmp_path,
                                                      monkeypatch):
        # a 2-component e_vec continues in the plane: the benchmark's planar
        # multistart problem, a cosine field along x1 on a 2 x 2 grid, gives
        # the library's results bit for bit
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 4, "n": 5, "h": -1.9},
            "perturbation": {"family": "uniform_electric", "eps": 1e-3,
                             "profile": "cosine",
                             "T_forcing": "orbit_period",
                             "e_vec": [1.0, 0.0]},
            "continuation": {"mode": "fixed_period",
                             "count_rot": 2, "count_shift": 2},
        }
        ran = []

        def recorded(*args):
            ran.append(multistart(*args))
            return ran[-1]

        monkeypatch.setattr(cforbits.cli, "multistart", recorded)
        payload = run_continue(tmp_path, cfg)
        orbit = find_closed_orbit(KineticLaw.classical(),
                                  Potential.homogeneous(1.0, 0.5), 4, 5, -1.9)
        samples = manifold_samples(orbit, 2, 2, group="planar")
        pert = Perturbation.uniform_electric((1.0, 0.0), 1e-3,
                                             profile="cosine",
                                             T_forcing=orbit.T)
        sys = HamiltonianSystem(orbit.law, orbit.potential, pert, 2)
        want = multistart(ShootingProblem(sys, "fixed_period",
                                          samples.states[0], orbit.T),
                          samples)
        assert [r["seed_id"] for r in payload["results"] if r["accepted"]] \
            == [0, 2]
        assert all(len(r["z0"]) == 4 for r in payload["results"])
        (got,) = ran
        for a, b in zip(got, want, strict=True):
            assert a.accepted == b.accepted
            assert np.array_equal(a.z0, b.z0)

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

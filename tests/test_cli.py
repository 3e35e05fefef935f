import csv
import importlib.util
import json
import logging
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cforbits.cli
import cforbits.nondeg
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
from cforbits.orbit import find_closed_orbit, manifold_samples, radial_profile

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


def one_case(cfg):
    """The single-orbit config cfg as nondeg reads it: a one-row cases."""
    return {"schema_version": 1, "law": cfg["law"],
            "cases": [{"potential": cfg["potential"], "orbit": cfg["orbit"]}]}


@lru_cache(maxsize=1)
def demo_commands():
    """tools/answers_digest.py's DEMO_COMMANDS: the command of a demo
    config by its file-name prefix."""
    spec = importlib.util.spec_from_file_location(
        "answers_digest", DEMO_DIR.parents[1] / "tools" / "answers_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.DEMO_COMMANDS


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
        # gives for the same config and the orbit command's definition;
        # without a command, that message is orbit's part of the refusal
        schema = cforbits.cli._schema()
        orbit = {k: v for k, v in schema.items() if k != "anyOf"} | {
            "$ref": "#/$defs/commands/orbit"}
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(cfg, orbit)
        path = write_cfg(tmp_path, cfg)
        with pytest.raises(ConfigError) as exc:
            load_config(path, "orbit")
        assert str(exc.value) == f"config validation failed: {ref.value.message}"
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert f"as orbit: {ref.value.message};" in str(exc.value)

    def test_refusal_without_a_command_names_each_commands_own(self,
                                                               tmp_path):
        # an orbit config with an unknown key: every command refuses the
        # key, and no command's refusal stands for the others
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, dict(KEPLER_ORBIT_CFG,
                                                 surprise=1)))
        message = str(exc.value)
        assert "'surprise'" in message
        for command in cforbits.cli._COMMANDS:
            assert f"as {command}: " in message

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

    # an orbit block names the energy of its one search, over L
    @pytest.mark.parametrize("orbit", [
        dict(KEPLER_ORBIT_CFG["orbit"], search="vary_L"),
        {"k": 1, "n": 1, "L": 1.0},
    ], ids=["search", "no_h"])
    @pytest.mark.parametrize("command", ["orbit", "nondeg"])
    def test_orbit_block_refused_by_the_schema(self, tmp_path, capsys,
                                               command, orbit):
        cfg = dict(KEPLER_ORBIT_CFG, orbit=orbit)
        if command == "nondeg":
            cfg = one_case(cfg)
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "validation" in capsys.readouterr().err
        assert (out / "manifest.json").exists()

    def test_constant_apsidal_angle_without_L(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(KEPLER_ORBIT_CFG))
        del cfg["orbit"]["L"]
        out = tmp_path / "out"
        assert main(["nondeg", "--config", write_cfg(tmp_path, one_case(cfg)),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "L_seed" in capsys.readouterr().err
        assert (out / "manifest.json").exists()

    def test_nondeg_refuses_a_single_case_outside_cases(self, tmp_path,
                                                        capsys):
        # a top-level potential and orbit are no one-row cases
        out = tmp_path / "out"
        assert main(["nondeg", "--config", write_cfg(tmp_path, KEPLER_ORBIT_CFG),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "('orbit', 'potential' were unexpected)" in \
            capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == []

    @pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.name)
    def test_demo_config_is_valid(self, path):
        assert load_config(path)["schema_version"] == 1

    @pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.name)
    def test_demo_config_is_valid_for_its_command(self, path):
        (command,) = [c for prefix, c in demo_commands().items()
                      if path.name.startswith(prefix)]
        assert load_config(path, command)["schema_version"] == 1

    def test_limit_classical_refuses_law_c(self, tmp_path, capsys):
        # the command sweeps c_values, so a law.c would go unread
        cfg = {
            "schema_version": 1,
            "law": {"kind": "relativistic", "m": 1.0, "c": 3.0},
            "potential": {"kind": "homogeneous", "alpha": 1.0},
            "orbit": {"h": -0.375, "L": 1.0},
            "c_values": [5.0, 10.0],
        }
        out = tmp_path / "out"
        assert main(["limit-classical", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "'c'" in capsys.readouterr().err
        assert (out / "manifest.json").exists()

    # limit-classical reads h and L of its orbit block, no k:n
    @pytest.mark.parametrize("key", ["k", "n"])
    def test_limit_classical_refuses_orbit_k_and_n(self, tmp_path, capsys,
                                                   key):
        cfg = json.loads((DEMO_DIR / "limit_classical.json").read_text())
        cfg["orbit"][key] = 1
        out = tmp_path / "out"
        assert main(["limit-classical", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert f"'{key}' was unexpected" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == []
        assert not (out / "limit_classical.csv").exists()

    def test_group_with_planar_electric_vector_is_validation_error(
            self, tmp_path, capsys):
        # continuation.group is no config key: the plane and space each
        # have one group
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
        assert "'group' was unexpected" in capsys.readouterr().err
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

    def test_limit_classical_rejects_classical_law(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(KEPLER_ORBIT_CFG))
        cfg["orbit"] = {"h": -0.375, "L": 1.0}
        cfg["c_values"] = [5.0, 10.0]
        path = write_cfg(tmp_path, cfg)
        assert main(["limit-classical", "--config", path,
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "'relativistic' was expected" in capsys.readouterr().err
        assert (tmp_path / "manifest.json").exists()

    # a demo config with one valid block that its command does not read
    @pytest.mark.parametrize("command, demo, block, value", [
        ("orbit", "orbit_kepler", "c_values", [5.0, 10.0]),
        ("orbit", "orbit_kepler", "cases", [
            {"potential": KEPLER_ORBIT_CFG["potential"],
             "orbit": KEPLER_ORBIT_CFG["orbit"]}]),
        ("orbit", "orbit_kepler", "continuation", {"mode": "fixed_period"}),
        ("orbit", "orbit_kepler", "perturbation",
         {"family": "rotating_frame", "eps": 1e-4}),
        ("nondeg", "nondeg_table", "output", {"trajectory_samples": 10}),
        ("nondeg", "nondeg_table", "perturbation",
         {"family": "rotating_frame", "eps": 1e-4}),
        ("nondeg", "nondeg_table", "potential", KEPLER_ORBIT_CFG["potential"]),
        ("nondeg", "nondeg_table", "orbit", KEPLER_ORBIT_CFG["orbit"]),
        ("continue", "continue_alpha05", "c_values", [5.0, 10.0]),
        ("continue", "continue_alpha05", "cases", [
            {"potential": KEPLER_ORBIT_CFG["potential"],
             "orbit": KEPLER_ORBIT_CFG["orbit"]}]),
        ("limit-classical", "limit_classical", "output",
         {"trajectory_samples": 10}),
        ("limit-classical", "limit_classical", "continuation",
         {"mode": "fixed_period"}),
    ], ids=["orbit-c_values", "orbit-cases", "orbit-continuation",
            "orbit-perturbation", "nondeg-output", "nondeg-perturbation",
            "nondeg-potential", "nondeg-orbit", "continue-c_values",
            "continue-cases", "limit_classical-output",
            "limit_classical-continuation"])
    def test_unread_block_rejected(self, tmp_path, capsys, command, demo,
                                   block, value):
        cfg = json.loads((DEMO_DIR / f"{demo}.json").read_text())
        assert block not in cfg
        cfg[block] = value
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert f"'{block}'" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == []

    def test_schema_blocks_and_command_reads_agree(self):
        # the schema defines one config per command, and a config is one
        # of them
        schema = cforbits.cli._schema()
        assert list(schema["$defs"]["commands"]) == list(cforbits.cli._COMMANDS)
        assert schema["anyOf"] == [{"$ref": f"#/$defs/commands/{c}"}
                                   for c in cforbits.cli._COMMANDS]


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

    def test_levi_civita_orbit(self, tmp_path):
        # the levi_civita potential block: the 7:6 orbit at lambda = 0.1,
        # h = -0.55, whose tau and phi are radial_profile's at its L, to
        # the 12 significant digits orbit.json writes
        cfg = {"schema_version": 1,
               "potential": {"kind": "levi_civita", "kappa": 1.0,
                             "lambda": 0.1},
               "orbit": {"k": 7, "n": 6, "h": -0.55},
               "output": {"write_trajectories": False}}
        out = tmp_path / "out"
        assert main(["orbit", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "orbit.json").read_text())
        profile = radial_profile(KineticLaw.classical(),
                                 Potential.levi_civita(1.0, 0.1), -0.55,
                                 summary["L"])
        assert summary["phi"] == pytest.approx(7 * np.pi / 6, rel=1e-11)
        assert summary["phi"] == pytest.approx(profile.phi, rel=1e-11)
        assert summary["tau"] == pytest.approx(profile.tau, rel=1e-11)
        assert summary["T"] == pytest.approx(6 * profile.tau, rel=1e-11)
        assert 0.0 < summary["closure_residual"] <= 1e-8

    @pytest.mark.parametrize("write", [False, True])
    def test_write_trajectories_is_honoured(self, tmp_path, write):
        # the default writes trajectory.csv (test_artifacts_and_values);
        # false writes orbit.json alone, with the same values
        cfg = dict(KEPLER_ORBIT_CFG, output={"write_trajectories": write,
                                             "trajectory_samples": 11})
        out = tmp_path / "out"
        assert main(["orbit", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        files = {"orbit.json", "trajectory.csv"} if write else {"orbit.json"}
        assert set(manifest["files"]) == files
        assert (out / "trajectory.csv").exists() == write
        if write:
            assert len((out / "trajectory.csv").read_bytes().splitlines()) == 12
        default = tmp_path / "default"
        assert main(["orbit", "--config", write_cfg(tmp_path, KEPLER_ORBIT_CFG),
                     "--out", str(default)]) == EXIT_OK
        assert ((out / "orbit.json").read_bytes()
                == (default / "orbit.json").read_bytes())

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


    def test_route_disagreement_through_cross_check(self, tmp_path,
                                                    monkeypatch):
        # the actions route's fixed-period verdict flipped on the alpha =
        # 0.5 case only: cross_check itself finds the monodromy route
        # disagreeing and raises, and that case alone becomes an error row
        flip = {"degenerate": "nondegenerate", "nondegenerate": "degenerate"}
        verdict = cforbits.nondeg.nondeg_fixed_period

        def flipped(rep):
            v = verdict(rep)
            return flip[v] if rep.profile.h == -1.5 else v

        monkeypatch.setattr(cforbits.nondeg, "nondeg_fixed_period", flipped)
        cfg = {"schema_version": 1, "cases": [
            {"name": "kepler",
             "potential": {"kind": "homogeneous", "alpha": 1.0},
             "orbit": {"k": 1, "n": 1, "h": -0.375, "L": 1.0}},
            self.CASES[0]]}
        out = tmp_path / "out"
        assert main(["nondeg", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_DISAGREEMENT
        good, bad = json.loads((out / "nondeg.json").read_text())["verdicts"]
        assert good["case"] == "kepler" and good["fixed_period"] == "degenerate"
        assert sorted(bad) == ["case", "error"] and bad["case"] == "a05"
        assert bad["error"] == ("route verdicts disagree: fixed-period: "
                                "actions=degenerate, monodromy=nondegenerate")
        with open(out / "nondeg.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 6 and {r[0] for r in rows[1:]} == {"kepler"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == ["nondeg.csv", "nondeg.json"]
        assert manifest["warnings"] == [f"a05: {bad['error']}"]


class TestLimitClassicalCommand:
    def test_second_order_convergence(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "law": {"kind": "relativistic", "m": 1.0},
            "potential": {"kind": "homogeneous", "alpha": 1.0},
            "orbit": {"h": -0.375, "L": 1.0},
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


def check_seed_records(payload, one_run_eps=None):
    """The per-seed records of a spatial fixed-period run's
    continuation.json account for their shots, solves and steps; with
    one_run_eps, every continued seed made the one run at that eps."""
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
        # every trial steps with a Jacobian solved at its point or reused
        # from the trial before; one contraction per accepted trial; one
        # state-only half-period shot per run of the driver and one per
        # trial shot
        h = r["history"]
        assert (r["variational_solves"] + r["jacobian_reuses"]
                == r["newton_iters"])
        assert len(r["contractions"]) == sum(1 for e in h if e[2])
        assert r["state_shots"] == (len(r["rung_starts"])
                                    + sum(1 for e in h if e[1] is not None))
        assert all(eps > 0.0 and res >= 0.0 for eps, res in r["rung_starts"])
        if one_run_eps is not None:
            assert [eps for eps, _ in r["rung_starts"]] == [one_run_eps]


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

    # the Kepler 1:1 orbit, degenerate in both problems
    DEGENERATE_BASE = {
        "schema_version": 1,
        "potential": {"kind": "homogeneous", "alpha": 1.0},
        "orbit": {"k": 1, "n": 1, "h": -0.375, "L": 1.0},
        "perturbation": {"family": "uniform_electric", "eps": 1e-3},
    }

    def test_degenerate_gate_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["continue", "--config",
                     write_cfg(tmp_path, self.DEGENERATE_BASE),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "degenerate unperturbed manifold" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == []

    def test_proceed_if_degenerate_is_refused(self, tmp_path, capsys):
        # the gate has no override
        cfg = {**self.DEGENERATE_BASE,
               "continuation": {"proceed_if_degenerate": True}}
        assert main(["continue", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert ("'proceed_if_degenerate' was unexpected"
                in capsys.readouterr().err)

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

    def test_group_with_rotating_frame_is_validation_error(self, tmp_path,
                                                           capsys):
        # continuation.group is no config key: the rotating frame continues
        # in the plane
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
        assert "'group' was unexpected" in capsys.readouterr().err
        assert (out / "manifest.json").exists()

    def test_spatial_group_is_gone(self, tmp_path, capsys):
        # space continues in SO(3) only: the library refuses O3, and a
        # spatial field's config refuses continuation.group
        orbit3 = find_closed_orbit(KineticLaw.classical(),
                                   Potential.homogeneous(1.0, 0.5), 4, 5,
                                   -1.9, dim=3)
        with pytest.raises(ValueError, match="unknown group"):
            manifold_samples(orbit3, 2, 2, group="O3")
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 4, "n": 5, "h": -1.9},
            "perturbation": {"family": "uniform_electric", "eps": 1e-4,
                             "e_vec": [1.0, 0.0, 0.0]},
            "continuation": {"group": "SO3"},
        }
        out = tmp_path / "out"
        assert main(["continue", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "'group' was unexpected" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == []

    def test_spatial_cosine_electric_run(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 4, "n": 5, "h": -1.9},
            "perturbation": {"family": "uniform_electric", "eps": 1e-4,
                             "profile": "cosine",
                             "T_forcing": "orbit_period",
                             "e_vec": [1.0, 0.0, 0.0]},
            "continuation": {"mode": "fixed_period", "count_rot": 1,
                             "count_shift": 2},
        }
        payload = run_continue(tmp_path, cfg)
        assert payload["n_accepted"] >= 1
        assert payload["n_distinct"] >= 1
        # the apogee seed lies on the fixed set of the reversor; the seed
        # shifted by tau/2, a perigee at -4 pi/5 from the field's line,
        # lies off it and is rejected unshot
        assert [r["accepted"] for r in payload["results"]] == [True, False]
        check_seed_records(payload, one_run_eps=1e-4)

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
            "continuation": {"mode": "fixed_period", "count_rot": 1,
                             "count_shift": 2},
        }
        (tmp_path / "given").mkdir()
        (tmp_path / "absent").mkdir()
        payload = run_continue(tmp_path / "given", cfg)
        assert payload["n_accepted"] >= 1
        assert [r["accepted"] for r in payload["results"]] == [True, False]
        check_seed_records(payload, one_run_eps=1e-4)
        # without e_vec the field is (1, 0, 0), and the run is in space
        del cfg["perturbation"]["e_vec"]
        assert run_continue(tmp_path / "absent", cfg) == payload

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
        # direct run fails, and the seed is continued in smaller steps, one
        # (eps, first-shot residual) pair per run
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
            [1e-2, 5e-3, 2.5e-3, 1.25e-3, 3.75e-3, 8.75e-3, 1e-2], rel=1e-12)
        assert {eps for eps, *_ in r["history"]} <= set(rungs)
        assert all(res >= 0.0 for _, res in r["rung_starts"])
        check_seed_records(payload)

    def test_field_off_x1_continues_the_turned_seeds(self, tmp_path):
        # the demo run with its field along x2: the samples are turned onto
        # the reversor's line, so the same seed as along x1 is continued, to
        # the quarter turn of its solution
        cfg = json.loads((DEMO_DIR / "continue_alpha05.json").read_text())
        cfg["output"] = {"write_trajectories": False}
        (tmp_path / "x1").mkdir()
        (tmp_path / "x2").mkdir()
        along_x1 = run_continue(tmp_path / "x1", cfg)
        cfg["perturbation"]["e_vec"] = [0.0, 1.0, 0.0]
        along_x2 = run_continue(tmp_path / "x2", cfg)
        accepted = [[r["seed_id"] for r in p["results"] if r["accepted"]]
                    for p in (along_x1, along_x2)]
        assert accepted[0] == accepted[1] == [0]
        z, w = (np.array(p["results"][0]["z0"]) for p in (along_x1, along_x2))
        quarter = np.array([-z[1], z[0], z[2], -z[4], z[3], z[5]])
        # to the last of the 12 digits continuation.json writes
        assert np.max(np.abs(w - quarter)) <= 1e-10
        check_seed_records(along_x2, one_run_eps=1e-3)

    def test_planar_field_at_30_degrees_continues(self, tmp_path):
        # a planar field at 30 degrees on an 8 x 2 grid: the apogee seeds on
        # the reversor's line, the first and the one turned by pi, are
        # continued
        cfg = json.loads((DEMO_DIR / "continue_alpha05.json").read_text())
        cfg["output"] = {"write_trajectories": False}
        cfg["perturbation"]["e_vec"] = [np.cos(np.pi / 6), np.sin(np.pi / 6)]
        cfg["continuation"]["count_rot"] = 8
        payload = run_continue(tmp_path, cfg)
        assert payload["n_seeds"] == 16
        assert [r["seed_id"] for r in payload["results"]
                if r["accepted"]] == [0, 8]
        for r in payload["results"]:
            if r["accepted"]:
                x = np.array(r["z0"][:2])
                # on the field's line
                assert abs(x[0] * 0.5 - x[1] * np.cos(np.pi / 6)) <= 1e-10

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
        assert len(r["z0"]) == 4
        assert r["distance_to_manifold"] <= 0.1

    def test_no_accepted_seed_exits_3_with_its_file(self, tmp_path,
                                                    monkeypatch):
        # every seed comes back rejected: continuation.json is written all
        # the same, and the run exits 3 with the manifest's warning
        def rejected(*args):
            return [replace(r, accepted=False, reason="stagnation at eps=1e-4")
                    for r in multistart(*args)]

        monkeypatch.setattr(cforbits.cli, "multistart", rejected)
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 4, "n": 5, "h": -1.9},
            "perturbation": {"family": "rotating_frame", "eps": 1e-4},
            "continuation": {"mode": "fixed_energy",
                             "count_rot": 1, "count_shift": 1},
        }
        out = tmp_path / "out"
        assert main(["continue", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_NUMERICAL
        payload = json.loads((out / "continuation.json").read_text())
        assert payload["n_accepted"] == payload["n_distinct"] == 0
        (r,) = payload["results"]
        assert not r["accepted"] and r["reason"] == "stagnation at eps=1e-4"
        assert r["distance_to_manifold"] is None
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == ["continuation.json"]
        assert manifest["warnings"] == ["no accepted continuation results"]

    def test_spatial_magnetic_run(self, tmp_path):
        # uniform_magnetic fixes dim = 3: the spatial_fe benchmark's
        # problem, the field along x3 at fixed energy, on one SO(3) seed
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "homogeneous", "alpha": 0.5},
            "orbit": {"k": 4, "n": 5, "h": -1.9},
            "perturbation": {"family": "uniform_magnetic", "eps": 1e-3},
            "continuation": {"mode": "fixed_energy",
                             "count_rot": 1, "count_shift": 1},
        }
        payload = run_continue(tmp_path, cfg)
        (r,) = payload["results"]
        assert r["accepted"] and len(r["z0"]) == 6
        assert r["energy_residual"] <= 1e-10

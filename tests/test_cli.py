import json

import pytest
from click.testing import CliRunner

from sisynth.cli import main
from conftest import RESTRICTED_CONFIG_PATH, braking_config_dict


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def braking_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "braking.json"
    path.write_text(json.dumps(braking_config_dict()))
    return str(path)


@pytest.fixture(scope="module")
def synth_run(runner, braking_config_path, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("synth")
    result = runner.invoke(main, ["synth", braking_config_path,
                                  "--output", str(outdir)])
    return result, outdir


class TestSynth:
    def test_success_exit_zero(self, synth_run):
        result, outdir = synth_run
        assert result.exit_code == 0, result.output
        assert (outdir / "certificate.json").exists()
        assert "k over valid restarts" in result.output
        assert "per-case lambda_min" in result.output

    def test_certificate_is_valid_json(self, synth_run):
        _, outdir = synth_run
        data = json.loads((outdir / "certificate.json").read_text())
        assert data["valid"] is True
        assert len(data["lambda_mins"]) == 2

    def test_solver_failure_exit_three(self, runner, tmp_path):
        raw = braking_config_dict()
        # pin the initial parameter range below the feasible band and
        # disable the steering rounds so no restart can certify
        raw["solver"].update({"k_init": [0.2, 0.3], "rounds": 1,
                              "restarts": 1, "iterations": 500})
        cfg = tmp_path / "infeasible.json"
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(main, ["synth", str(cfg),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "residual" in result.output

    def test_malformed_polynomial_exit_four(self, runner, tmp_path):
        raw = braking_config_dict()
        raw["index"]["phi0"] = "1 -- d ^^"
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(main, ["synth", str(cfg),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 4
        assert "config error" in result.output

    def test_unknown_section_exit_four(self, runner, tmp_path):
        raw = braking_config_dict()
        raw["bogus"] = {}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(main, ["synth", str(cfg),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 4

    def test_invalid_json_exit_four(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["synth", str(cfg),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 4


class TestVerify:
    def test_valid_certificate_exit_zero(self, runner, braking_config_path,
                                         synth_run, tmp_path):
        _, outdir = synth_run
        result = runner.invoke(main, [
            "verify", braking_config_path,
            "--certificate", str(outdir / "certificate.json"),
            "--output", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "certificate check: pass" in result.output
        assert "0 counterexample(s)" in result.output

    def test_raw_k_zero_exit_two(self, runner, braking_config_path, tmp_path):
        result = runner.invoke(main, ["verify", braking_config_path,
                                      "--k", "0.0", "--output", str(tmp_path)])
        assert result.exit_code == 2
        assert (tmp_path / "counterexamples.csv").exists()
        assert "worst" in result.output

    def test_tampered_certificate_exit_two(self, runner, braking_config_path,
                                           synth_run, tmp_path):
        _, outdir = synth_run
        data = json.loads((outdir / "certificate.json").read_text())
        data["decision"]["k"] = 0.5   # below the feasible band
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        result = runner.invoke(main, ["verify", braking_config_path,
                                      "--certificate", str(tampered),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "FAIL" in result.output

    def test_no_inputs_exit_four(self, runner, braking_config_path, tmp_path):
        result = runner.invoke(main, ["verify", braking_config_path,
                                      "--output", str(tmp_path)])
        assert result.exit_code == 4


@pytest.fixture(scope="module")
def restricted_cert_path(restricted_certificate, tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "certificate.json"
    path.write_text(json.dumps(restricted_certificate.to_dict()))
    return str(path)


class TestSimulate:
    def test_batch_exit_zero(self, runner, restricted_cert_path, tmp_path):
        result = runner.invoke(main, [
            "simulate", RESTRICTED_CONFIG_PATH,
            "--certificate", restricted_cert_path,
            "--trials", "2", "--trajectories", "--output", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "report.md").exists()
        assert (tmp_path / "trajectory_000.csv").exists()
        assert "Safe Set (%)" in result.output
        assert "steps/s" in (tmp_path / "report.md").read_text()

    def test_zero_trials_warns(self, runner, restricted_cert_path, tmp_path):
        result = runner.invoke(main, [
            "simulate", RESTRICTED_CONFIG_PATH,
            "--certificate", restricted_cert_path,
            "--trials", "0", "--output", str(tmp_path)])
        assert result.exit_code == 0
        assert "vacuous" in result.output

    def test_invalid_certificate_refused(self, runner, restricted_certificate,
                                         tmp_path):
        data = restricted_certificate.to_dict()
        data["lambda_mins"] = [-1.0 for _ in data["lambda_mins"]]
        data["valid"] = False
        bad = tmp_path / "bad_cert.json"
        bad.write_text(json.dumps(data))
        result = runner.invoke(main, [
            "simulate", RESTRICTED_CONFIG_PATH,
            "--certificate", str(bad), "--output", str(tmp_path)])
        assert result.exit_code == 2
        assert "refusing" in result.output


class TestReport:
    def test_prints_artifacts(self, runner, synth_run):
        _, outdir = synth_run
        result = runner.invoke(main, ["report", str(outdir)])
        assert result.exit_code == 0
        assert "certificate: valid=True" in result.output

    def test_empty_directory(self, runner, tmp_path):
        result = runner.invoke(main, ["report", str(tmp_path)])
        assert "no artifacts found" in result.output

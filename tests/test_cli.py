import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sisynth.cli import main
from sisynth.config import RunConfig, build_problem
from sisynth.feasibility import AffineGramMap, Certificate, GramStack, TOLERANCE
from conftest import (RESTRICTED_CONFIG_PATH, braking_config_dict, default_unicycle_config,
                      triple_integrator_config_dict)


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def sim_config(tmp_path, raw=None, **sim) -> str:
    """Write ``raw``, by default a copy of the restricted config, with
    ``sim`` merged into its sim section, and return the file's path; the
    config is the one place that sets the trial count and seed."""
    raw = raw or json.loads(open(RESTRICTED_CONFIG_PATH).read())
    raw.setdefault("sim", {}).update(sim)
    path = tmp_path / "sim_config.json"
    path.write_text(json.dumps(raw))
    return str(path)


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
        # the unrestricted unicycle certifies at no k, so the search over k
        # fails too
        raw = default_unicycle_config()
        raw["solver"].update({"restarts": 1, "iterations": 500})
        cfg = tmp_path / "infeasible.json"
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(main, ["synth", str(cfg),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "worst lambda_min" in result.output

    def test_tolerance_key_exit_four(self, runner, tmp_path):
        # the tolerance is a constant; "tolerance": 1 once let synth report
        # 10/10 valid restarts on the unrestricted unicycle, which no k certifies
        raw = braking_config_dict()
        raw["solver"]["tolerance"] = 1.0
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(main, ["synth", str(cfg), "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert "solver key 'tolerance' must be absent (unknown key), got 1.0" in result.output
        assert not (tmp_path / "out" / "certificate.json").exists()

    def test_negative_config_seed_exit_four(self, runner, tmp_path):
        raw = braking_config_dict()
        raw["solver"]["seed"] = -1
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(main, ["synth", str(cfg), "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert "solver key 'seed' must be an integer >= 0, got -1" in result.output

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

    @pytest.mark.parametrize("unicycle", [True, False], ids=["unicycle", "custom"])
    @pytest.mark.parametrize("dt", [0, -0.01, "0.01", True], ids=["0", "-0.01", "str", "bool"])
    def test_bad_model_dt_exit_four(self, runner, tmp_path, unicycle, dt):
        # dt = 0 once divided by zero in the builtin unicycle's box formula
        if unicycle:
            raw = json.loads(open(RESTRICTED_CONFIG_PATH).read())
        else:
            raw = braking_config_dict()
        raw["model"]["dt"] = dt
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(main, ["synth", str(cfg),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert "model key 'dt' must be a finite number > 0" in result.output

    @pytest.mark.parametrize("model, message", [
        ({"builtin": "unicycle", "dt": 0.01},
         "model key 'builtin' must be absent (unknown key), got 'unicycle'"),
        ({"state_vars": ["d", "z", "z"], "f": ["-1*z", "0", "1"], "g": [["0"], ["1"], ["0"]],
          "u_lower": ["-1"], "u_upper": ["1"]},
         "model key 'state_vars' must be a list of distinct state variable names (strings), "
         "got ['d', 'z', 'z']")],
        ids=["builtin", "repeated-state-variable"])
    def test_refused_model_exit_four(self, runner, tmp_path, model, message):
        raw = braking_config_dict()
        raw["model"] = model
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(main, ["synth", str(cfg), "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert message in result.output

    @pytest.mark.parametrize("section, edit, message", [
        pytest.param("sim", {"dt": 0.05},
                     "sim key 'dt' must be absent (unknown key), got 0.05",
                     id="sim-edit0-bad sim section: unknown sim keys: ['dt']"),
        pytest.param("falsifier", {"samples": -5},
                     "falsifier key 'samples' must be an integer >= 0, got -5",
                     id="falsifier-edit1-bad falsifier section: falsifier samples must be >= 0")])
    def test_bad_unread_section_exit_four(self, runner, tmp_path, section, edit, message):
        # synth reads neither section, but a bad one once let it solve and
        # write a certificate
        raw = braking_config_dict()
        raw.setdefault(section, {}).update(edit)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(main, ["synth", str(cfg), "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert message in result.output
        assert not (tmp_path / "out" / "certificate.json").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("index", "phi0", 1, "index key 'phi0' must be a polynomial literal (a string), got 1"),
        ("model", "f", ["-1*z", 0],
         "model key 'f' must be a list of polynomial literals (strings), got ['-1*z', 0]"),
        # a repeated name was once eliminated twice, and the second pass
        # called it nonlinear
        ("solver", "eliminate_nonneg", ["d", "d"],
         "solver key 'eliminate_nonneg' must be a list of distinct state variable names "
         "(strings), got ['d', 'd']")],
        ids=["phi0", "model-f", "eliminate-repeated"])
    def test_number_for_literal_exit_four(self, runner, tmp_path, section, key, value, message):
        # a number where a polynomial literal belongs once ended in a TypeError
        raw = braking_config_dict()
        raw[section][key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(main, ["synth", str(cfg), "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert f"config error: {message}" in result.output

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

    def test_certificate_below_k_floor_exit_two(self, runner, braking_config_path,
                                                synth_run, tmp_path):
        # IndexParams once refused such a k a second time, after the FAIL
        # verdict, and verify exited 4 with a config error
        _, outdir = synth_run
        data = json.loads((outdir / "certificate.json").read_text())
        data["decision"]["k"] = 5e-5
        path = tmp_path / "below_floor.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["verify", braking_config_path,
                                      "--certificate", str(path),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "certificate check: FAIL" in result.output
        assert "below 0.0001" in result.output

    def test_nan_decision_exit_two(self, runner, braking_config_path, synth_run, tmp_path):
        # json.load reads NaN, and the re-check once passed it: every test
        # in it was a comparison, and each is false for NaN
        _, outdir = synth_run
        data = json.loads((outdir / "certificate.json").read_text())
        data["decision"]["pg_p_1"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["verify", braking_config_path,
                                      "--certificate", str(path),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "certificate check: FAIL" in result.output
        assert "decision variable pg_p_1 = nan is not finite" in result.output

    def test_certificate_tolerance_not_trusted(self, runner, restricted_problem, tmp_path):
        # random multipliers leave negative Gram eigenvalues; a certificate
        # file that states a lax tolerance once passed the check
        p = restricted_problem
        rng = np.random.default_rng(0)
        decision = rng.uniform(-1, 1, size=p.layout.size)
        decision[p.layout.gamma_idx] = rng.uniform(0, 1, size=len(p.layout.gamma_idx))
        decision[p.layout.theta_idx] = 0.0125
        cert = Certificate(decision=decision, variable_names=[v.name for v in p.layout.variables],
                           lambda_mins=np.zeros(len(p.specs)), seed=0, config_hash="")
        path = tmp_path / "lax.json"
        path.write_text(json.dumps({**cert.to_dict(), "tolerance": 1e3}))
        result = runner.invoke(main, ["verify", RESTRICTED_CONFIG_PATH,
                                      "--certificate", str(path),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "certificate check: FAIL" in result.output
        assert "< -1.0e-06" in result.output

    def test_nan_eta_exit_four(self, runner, tmp_path):
        # a NaN eta once dropped out of every derivative condition, and k = 0
        # then passed the falsifier
        cfg = tmp_path / "nan_eta.json"
        cfg.write_text(json.dumps(braking_config_dict()).replace('"eta": 0.1', '"eta": NaN'))
        result = runner.invoke(main, ["verify", str(cfg), "--k", "0.0",
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert "index key 'eta' must be a finite number > 0" in result.output

    @pytest.mark.parametrize("key, value, message", [
        pytest.param("resolution", 1, "falsifier axis 0 key 'resolution' must be an integer >= 2, "
                     "got 1", id="resolution-1-axis resolution must be >= 2"),
        pytest.param("samples", -5, "falsifier key 'samples' must be an integer >= 0, got -5",
                     id="samples--5-falsifier samples must be >= 0"),
        # slack is a constant, not a key
        pytest.param("slack", -10.0, "falsifier key 'slack' must be absent (unknown key), "
                     "got -10.0", id="slack-retired"),
        # a second axis on d once replaced the first, and verify --k 0.5 found
        # none of the 861 counterexamples and exited 0
        pytest.param("axes", [*braking_config_dict()["falsifier"]["axes"],
                              {"var": "d", "range": [5.0, 6.0], "resolution": 2}],
                     "falsifier axis 2 names state variable 'd' a second time",
                     id="axes-repeat-d")])
    def test_bad_falsifier_section_exit_four(self, runner, tmp_path, key, value, message):
        raw = braking_config_dict()
        if key == "resolution":
            raw["falsifier"]["axes"][0]["resolution"] = value
        else:
            raw["falsifier"][key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        # at k = 0 the falsifier finds counterexamples; "samples": -5 once ran
        # as 0 samples and a negative slack hid every counterexample
        result = runner.invoke(main, ["verify", str(cfg), "--k", "0.0",
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert f"config error: {message}" in result.output
        assert "counterexample" not in result.output

    @pytest.mark.parametrize("edit, message", [
        ({"falsifier": {"axes": [{"var": "d", "range": [-2.0, 2.0]}]}},
         "falsifier axes do not cover state variables: ['z']"),
        # a stray axis once multiplied the grid and repeated each grid hit
        ({"falsifier": {"axes": [*braking_config_dict()["falsifier"]["axes"],
                                 {"var": "typo", "range": [0.0, 1.0], "resolution": 3}]}},
         "falsifier axis 2 names 'typo', not a state variable"),
        ({"model": {"u_lower": ["1"], "u_upper": ["-1"]}}, "control bounds inverted")],
        ids=["axes-miss-state", "axes-stray-name", "inverted-box"])
    def test_falsify_refusal_exit_four(self, runner, tmp_path, edit, message):
        # falsify's own refusals once ended verify in a traceback with exit 1
        raw = braking_config_dict()
        for section, values in edit.items():
            raw[section].update(values)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(main, ["verify", str(cfg), "--k", "0.5",
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert f"config error: {message}" in result.output

    def test_stated_tolerance_does_not_change_verdict(self, runner, braking_config_path,
                                                      synth_run, tmp_path):
        # k = 0.5 leaves case 0 at lambda_min -1.64; a file that states a lax
        # tolerance and its own validity gets the verdict of one that does not
        _, outdir = synth_run
        data = json.loads((outdir / "certificate.json").read_text())
        data["decision"]["k"] = 0.5
        outputs = []
        for name, stated in [("plain", {}), ("lax", {"tolerance": 2.5, "valid": True})]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**data, **stated}))
            result = runner.invoke(main, ["verify", braking_config_path,
                                          "--certificate", str(path),
                                          "--output", str(tmp_path / name)])
            assert result.exit_code == 2, result.output
            assert "certificate check: FAIL" in result.output
            outputs.append(result.output)
        assert outputs[0] == outputs[1].replace(str(tmp_path / "lax"), str(tmp_path / "plain"))

    def test_certificate_not_json_exit_four(self, runner, braking_config_path, tmp_path):
        # it once ended in a JSONDecodeError traceback with exit 1
        path = tmp_path / "cert.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["verify", braking_config_path, "--certificate", str(path),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert "certificate error: cannot read" in result.output
        assert "JSONDecodeError" in result.output
        assert "certificate check" not in result.output

    @pytest.mark.parametrize("edit", ["empty", "k-last"])
    def test_certificate_of_another_layout_exit_four(self, runner, braking_config_path,
                                                     synth_run, tmp_path, edit):
        # an empty decision once failed the check and then ended in an
        # IndexError traceback when verify read its k
        _, outdir = synth_run
        data = json.loads((outdir / "certificate.json").read_text())
        decision = data["decision"]
        data["decision"] = {} if edit == "empty" else {
            **{n: v for n, v in decision.items() if n != "k"}, "k": decision["k"]}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["verify", braking_config_path, "--certificate", str(path),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert "certificate error: not made for this config: decision " in result.output
        assert "certificate check" not in result.output

    def test_k_count_exit_four(self, runner, braking_config_path, tmp_path):
        # one value per chain member; a wrong count would otherwise surface
        # from lowering as a "parameter dimension mismatch"
        result = runner.invoke(main, ["verify", braking_config_path, "--k", "0.5",
                                      "--k", "0.3", "--output", str(tmp_path)])
        assert result.exit_code == 4
        assert "--k takes 1 value for this config's index, got 2" in result.output

    def test_no_inputs_exit_four(self, runner, braking_config_path, tmp_path):
        result = runner.invoke(main, ["verify", braking_config_path,
                                      "--output", str(tmp_path)])
        assert result.exit_code == 4

    def test_certificate_with_k_exit_four(self, runner, braking_config_path, synth_run,
                                          tmp_path):
        # the certificate fixes k; a --k beside it was once silently dropped
        _, outdir = synth_run
        result = runner.invoke(main, ["verify", braking_config_path,
                                      "--certificate", str(outdir / "certificate.json"),
                                      "--k", "0.0", "--output", str(tmp_path)])
        assert result.exit_code == 4, result.output
        assert "verify takes --certificate or --k, not both" in result.output
        assert not (tmp_path / "counterexamples.csv").exists()


@pytest.fixture(scope="module")
def restricted_cert_path(restricted_certificate, tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "certificate.json"
    path.write_text(json.dumps(restricted_certificate.to_dict()))
    return str(path)


class TestOrderTwo:
    """A triple integrator, whose index chain has order 2, runs end to end;
    its verify once exited 4 whatever the certificate or k."""

    @pytest.fixture(scope="class")
    def config_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cfg") / "triple.json"
        path.write_text(json.dumps(triple_integrator_config_dict()))
        return str(path)

    def test_synth_then_verify_certificate(self, runner, config_path, tmp_path):
        result = runner.invoke(main, ["synth", config_path, "--output", str(tmp_path)])
        assert result.exit_code in (0, 3), result.output
        result = runner.invoke(main, ["verify", config_path, "--certificate",
                                      str(tmp_path / "certificate.json"),
                                      "--output", str(tmp_path / "verify")])
        assert result.exit_code in (0, 2), result.output

    @pytest.mark.parametrize("k, code", [(["3", "2"], (0, 2)), (["1", "1"], (4,))],
                             ids=["real-roots", "complex-roots"])
    def test_verify_k(self, runner, config_path, tmp_path, k, code):
        # 1 + 3s + 2s^2 = (1 + s)(1 + 2s); 1 + s + s^2 has no real root
        args = [a for v in k for a in ("--k", v)]
        result = runner.invoke(main, ["verify", config_path, *args, "--output", str(tmp_path)])
        assert result.exit_code in code, result.output

    def test_certificate_with_complex_roots_fails(self, runner, config_path, tmp_path):
        # DR certifies every case at k = (10, 30), but 1 + 10s + 30s^2 has
        # complex roots; verify once printed "certificate check: pass" and
        # then exited 4 with a config error
        p = build_problem(RunConfig.load(config_path))
        amap = AffineGramMap(GramStack(p.specs, p.layout), p.layout).at(np.array([10.0, 30.0]))
        rng = np.random.default_rng(0)
        y, lams, record = amap.refine(rng.uniform(-1, 1, size=len(amap.free_idx)),
                                      iterations=100, tolerance=TOLERANCE)
        assert record["stop"] == "tolerance"
        decision = np.empty(p.layout.size)
        decision[p.layout.theta_idx] = amap.theta
        decision[amap.free_idx] = y
        cert = Certificate(decision=decision, variable_names=[v.name for v in p.layout.variables],
                           lambda_mins=lams, seed=0, config_hash="")
        path = tmp_path / "certificate.json"
        path.write_text(json.dumps(cert.to_dict()))
        result = runner.invoke(main, ["verify", config_path, "--certificate", str(path),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "certificate check: FAIL" in result.output
        assert "k = [10.0, 30.0] has characteristic roots that are not all real and positive" \
            in result.output
        assert "lambda_min" not in result.output   # the Gram matrices pass
        assert "falsifier" not in result.output


class TestSimulate:
    def test_batch_exit_zero(self, runner, restricted_cert_path, tmp_path):
        result = runner.invoke(main, [
            "simulate", sim_config(tmp_path, trials=2),
            "--certificate", restricted_cert_path,
            "--trajectories", "--output", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "report.md").exists()
        assert (tmp_path / "trajectory_000.csv").exists()
        assert "Safe Set (%)" in result.output
        assert "steps/s" in (tmp_path / "report.md").read_text()

    def test_zero_trials_warns(self, runner, restricted_cert_path, tmp_path):
        result = runner.invoke(main, [
            "simulate", sim_config(tmp_path, trials=0),
            "--certificate", restricted_cert_path, "--output", str(tmp_path)])
        assert result.exit_code == 0
        assert "vacuous" in result.output

    def test_sim_dt_exit_four(self, runner, restricted_cert_path, tmp_path):
        # the step is the model's dt; a second dt in sim once let the
        # simulator step past the control period the box is derived for
        result = runner.invoke(main, [
            "simulate", sim_config(tmp_path, trials=1, dt=0.05),
            "--certificate", restricted_cert_path, "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert "sim key 'dt' must be absent (unknown key), got 0.05" in result.output
        assert not (tmp_path / "out" / "report.md").exists()

    def test_model_without_unicycle_state_exit_four(self, runner, synth_run, tmp_path):
        # the braking model's certificate is valid, but run_trial builds the
        # unicycle state; it once ended in a state dimension mismatch
        _, outdir = synth_run
        result = runner.invoke(main, [
            "simulate", sim_config(tmp_path, braking_config_dict(), trials=1),
            "--certificate", str(outdir / "certificate.json"), "--output", str(tmp_path)])
        assert result.exit_code == 4, result.output
        assert "state variables are d, x, y, z; this model has d, z" in result.output
        assert not (tmp_path / "report.md").exists()

    def test_stated_invalid_certificate_rechecked(self, runner, restricted_certificate,
                                                  tmp_path):
        # the file's lambda_mins say invalid, but its decision certifies; the
        # stated verdict once refused the trials before the re-check ran
        data = restricted_certificate.to_dict()
        data["lambda_mins"] = [-1.0 for _ in data["lambda_mins"]]
        data["valid"] = False
        path = tmp_path / "stated_invalid.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, [
            "simulate", sim_config(tmp_path, trials=2), "--certificate", str(path),
            "--output", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert "certificate check: pass" in result.output
        assert (tmp_path / "out" / "report.md").exists()

    def test_tampered_certificate_rechecked(self, runner, restricted_certificate, tmp_path):
        # the file's own lambda_mins still read valid; the Gram matrices at
        # its k do not, and once ran their trials
        data = restricted_certificate.to_dict()
        data["decision"]["k"] = 1.0
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, [
            "simulate", sim_config(tmp_path, trials=2), "--certificate", str(path),
            "--output", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "certificate check: FAIL" in result.output
        assert "Safe Set (%)" not in result.output
        assert not (tmp_path / "out" / "report.md").exists()

    def test_nan_multiplier_exit_two(self, runner, restricted_certificate, tmp_path):
        data = restricted_certificate.to_dict()
        data["decision"]["pg_ppp_1"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, [
            "simulate", sim_config(tmp_path, trials=2), "--certificate", str(path),
            "--output", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "decision variable pg_ppp_1 = nan is not finite" in result.output
        assert not (tmp_path / "out" / "report.md").exists()

    def test_certificate_without_lambda_mins_exit_four(self, runner, restricted_certificate,
                                                       tmp_path):
        # it once ended in a KeyError traceback with exit 1
        data = restricted_certificate.to_dict()
        del data["lambda_mins"]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, [
            "simulate", sim_config(tmp_path, trials=1), "--certificate", str(path),
            "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert "certificate error: cannot read" in result.output
        assert "KeyError('lambda_mins')" in result.output
        assert not (tmp_path / "out" / "report.md").exists()

    def test_certificate_of_another_config_exit_four(self, runner, synth_run, tmp_path):
        # the braking certificate once ran the unicycle trials at its k
        _, outdir = synth_run
        result = runner.invoke(main, [
            "simulate", sim_config(tmp_path, trials=1),
            "--certificate", str(outdir / "certificate.json"),
            "--output", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert "certificate error: not made for this config: decision dimension" \
            in result.output
        assert not (tmp_path / "out" / "report.md").exists()


class TestReport:
    def test_prints_artifacts(self, runner, synth_run):
        _, outdir = synth_run
        result = runner.invoke(main, ["report", str(outdir)])
        assert result.exit_code == 0
        assert "certificate: valid=True" in result.output
        assert "restart 0: valid, k = [" in result.output
        assert "DR iterations, stop tolerance" in result.output
        assert ", reduced lambda_min " in result.output
        # the braking restarts start below the feasible band and search over k
        data = json.loads((outdir / "certificate.json").read_text())
        grid = data["restarts"][0]["grid"]
        assert grid
        assert f"grid (k, lambda*): ({grid[0][0]:.3g}, {grid[0][1]:.3e})" in result.output
        for run in data["restarts"][0]["runs"]:
            assert f"DR at k = [{run['k'][0]:.6g}]: {run['dr_iters']} DR iterations" \
                in result.output

    def test_prints_mirror_pairs(self, runner, restricted_certificate, tmp_path):
        data = restricted_certificate.to_dict()
        (tmp_path / "certificate.json").write_text(json.dumps(data))
        result = runner.invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "\n  solved 4 of 8 cases; mirror x → −x: 0↔3, 1↔2, 4↔7, 5↔6\n" in result.output
        # a certificate written before the pairing reads as having no pairs
        del data["mirror_pairs"]
        (tmp_path / "certificate.json").write_text(json.dumps(data))
        result = runner.invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "certificate: valid=True" in result.output and "mirror" not in result.output

    @pytest.mark.parametrize("text", [
        "{}", "{not json",
        json.dumps({"decision": {"k": 2.0}, "lambda_mins": [0.0], "seed": 0, "restarts": [{}]})],
        ids=["empty", "not-json", "restart-without-fields"])
    def test_bad_certificate_exit_four(self, runner, tmp_path, text):
        # it once ended in a KeyError or JSONDecodeError traceback with exit 1
        (tmp_path / "certificate.json").write_text(text)
        result = runner.invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 4, result.output
        assert "certificate error: cannot read" in result.output
        assert "certificate:" not in result.output

    def test_empty_directory(self, runner, tmp_path):
        result = runner.invoke(main, ["report", str(tmp_path)])
        assert "no artifacts found" in result.output


class TestOneDirectory:
    """The config file sets every seed and trial count, so synth, verify and
    simulate of one config write to one directory, ``runs/<config hash>``."""

    def test_one_study_one_directory(self, runner, tmp_path):
        # with sim.seed 1 the certificate once went to runs/<hash>-0 and the
        # trial report to runs/<hash>-1, and report on the first showed no trials
        raw = json.loads(open(RESTRICTED_CONFIG_PATH).read())
        raw["solver"]["restarts"] = 1
        raw["sim"].update(seed=1, trials=1, horizon=1.0)
        for axis in raw["falsifier"]["axes"]:
            axis["resolution"] = 5
        raw["falsifier"]["samples"] = 100
        with runner.isolated_filesystem(temp_dir=tmp_path):
            Path("study.json").write_text(json.dumps(raw))
            outdir = Path("runs") / RunConfig.load("study.json").digest()
            result = runner.invoke(main, ["synth", "study.json"])
            assert result.exit_code == 0, result.output
            result = runner.invoke(main, ["verify", "study.json", "--k", "0.0"])
            assert result.exit_code == 2, result.output
            result = runner.invoke(main, ["simulate", "study.json",
                                          "--certificate", str(outdir / "certificate.json")])
            assert result.exit_code == 0, result.output
            assert list(Path("runs").iterdir()) == [outdir]
            assert sorted(p.name for p in outdir.iterdir()) == \
                ["certificate.json", "counterexamples.csv", "report.md"]
            result = runner.invoke(main, ["report", str(outdir)])
            assert result.exit_code == 0, result.output
            # the certificate names the config that made it, not its solver fields alone
            assert f"certificate: valid=True, seed=0, config={outdir.name}\n" in result.output
            assert f"counterexamples: 9 (see {outdir / 'counterexamples.csv'})" in result.output
            assert "# Simulation batch report" in result.output
            assert "- trials: 1\n" in result.output
            # a clean re-check removes the rows the k = 0 run left
            result = runner.invoke(main, ["verify", "study.json",
                                          "--certificate", str(outdir / "certificate.json")])
            assert result.exit_code == 0, result.output
            assert not (outdir / "counterexamples.csv").exists()
            result = runner.invoke(main, ["report", str(outdir)])
            assert result.exit_code == 0, result.output
            assert "counterexamples:" not in result.output

    @pytest.mark.parametrize("command, flag", [("synth", "--seed"), ("simulate", "--seed"),
                                               ("simulate", "--trials")])
    def test_retired_flag_refused(self, runner, restricted_cert_path, tmp_path, command, flag):
        # each restated a config value and moved the run to another directory
        args = [command, RESTRICTED_CONFIG_PATH, flag, "1"]
        if command == "simulate":
            args += ["--certificate", restricted_cert_path]
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, args)
            assert result.exit_code == 4, result.output
            assert "No such option" in result.output and flag in result.output
            assert not list(Path().iterdir())


class TestUsageError:
    @pytest.mark.parametrize("args, message", [
        (["bogus"], "No such command 'bogus'"),
        (["verify", RESTRICTED_CONFIG_PATH, "--bogus", "1"], "No such option '--bogus'"),
        (["synth", "nonexistent.json"], "File 'nonexistent.json' does not exist"),
        (["verify", RESTRICTED_CONFIG_PATH, "--k", "abc"], "'--k': 'abc' is not a valid float"),
        (["simulate", RESTRICTED_CONFIG_PATH], "Missing option '--certificate'"),
    ], ids=["command", "option", "missing-config", "malformed-k", "missing-certificate"])
    def test_exit_four(self, runner, tmp_path, args, message):
        # click exits 2 on a usage error, the code for a safety failure, so a
        # script could not tell a typo from a counterexample
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, args)
            assert result.exit_code == 4, result.output
            assert "Error: " in result.output and message in result.output
            assert not list(Path().iterdir())

import inspect
import json
import math

import pytest

from sisynth.config import ConfigError, RunConfig, build_problem, default_unicycle_config
from sisynth.feasibility import SolverConfig, check_certificate
from sisynth.index import K_MIN

from conftest import braking_config_dict


def solver_config(**solver):
    raw = braking_config_dict()
    raw["solver"].update(solver)
    return RunConfig.from_dict(raw).solver_config()


class TestSolverConfig:
    def test_round_trip(self):
        cfg = solver_config(restarts=2, iterations=300, tolerance=0, k_init=[0.5, 0.5])
        assert (cfg.restarts, cfg.iterations) == (2, 300)
        assert cfg.tolerance == 0.0 and cfg.k_init == (0.5, 0.5)

    @pytest.mark.parametrize("key, value", [
        # a k_init below the k floor once ran the first DR run at a negative k
        ("restarts", 0), ("restarts", True), ("k_init", [-1.0, 0.0]), ("k_init", [5e-5, 1.0]),
        ("iterations", 0), ("iterations", 2.5), ("tolerance", -1.0),
        ("tolerance", math.inf), ("tolerance", math.nan), ("tolerance", "1e-6"),
        ("k_init", [0.5, 0.2]), ("k_init", [0.2, math.inf]), ("k_init", [0.2]),
        ("k_init", 0.2), ("k_min", 1e-5), ("k_min", math.nan), ("k_min", "1e-3"),
        # seeds 1.9 and true once ran as 1, and -1 loaded and then failed in solve
        ("seed", 1.9), ("seed", True), ("seed", -1), ("seed", "0")])
    def test_bad_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"solver key '{key}' must be"):
            solver_config(**{key: value})

    def test_seed_kept_as_given(self):
        assert solver_config(seed=7).seed == 7
        assert solver_config(seed=0).seed == 0

    def test_k_min_floor_is_the_index_floor(self):
        # IndexParams refuses k below K_MIN, so a lower k_min would let solve
        # and check_certificate accept a certificate that verify and
        # simulate then refuse (k_min values below it: test_bad_value_rejected)
        assert SolverConfig().k_min == K_MIN
        assert inspect.signature(check_certificate).parameters["k_min"].default == K_MIN
        assert solver_config(k_min=K_MIN).k_min == K_MIN

    def test_k_init_below_configured_k_min_rejected(self):
        with pytest.raises(ConfigError, match="solver key 'k_init' must be .* 0.3 <= lo"):
            solver_config(k_min=0.3, k_init=[0.2, 0.5])

    def test_retired_rounds_key_rejected(self):
        # the search over k replaced the rounds of penalty descent
        raw = braking_config_dict()
        raw["solver"]["rounds"] = 2
        with pytest.raises(ConfigError, match=r"unknown solver keys: \['rounds'\]"):
            RunConfig.from_dict(raw)

    def test_retired_gram_kernel_key_rejected(self):
        # kernel shares are always on wherever a monomial has several basis pairs
        raw = braking_config_dict()
        raw["solver"]["gram_kernel"] = True
        with pytest.raises(ConfigError, match=r"unknown solver keys: \['gram_kernel'\]"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("key", ["restarts"])
    def test_zero_rejected_before_solve(self, key):
        # "restarts": 0 once left no best restart to unpack
        raw = braking_config_dict()
        raw["solver"][key] = 0
        with pytest.raises(ConfigError, match=f"solver key '{key}'"):
            build_problem(RunConfig.from_dict(raw))


class TestCheckedAtLoad:
    """Index and refute-shaping values are checked, not cast, when the config
    loads: a NaN eta once dropped out of every case's derivative condition,
    a basis_degree of 1.9 ran as 1, and aux_splits "xy" was read letter by
    letter."""

    @pytest.mark.parametrize("section, key, value", [
        ("index", "eta", math.nan), ("index", "eta", math.inf), ("index", "eta", 0),
        ("index", "eta", -0.1), ("index", "eta", "0.1"), ("index", "eta", True),
        ("index", "order", 0), ("index", "order", 1.5), ("index", "order", True),
        ("solver", "product_order", 3), ("solver", "product_order", 0),
        ("solver", "product_order", 2.0), ("solver", "product_order", True),
        ("solver", "basis_degree", 0), ("solver", "basis_degree", 1.9),
        ("solver", "basis_degree", "2"), ("solver", "basis_degree", True),
        ("solver", "aux_splits", "xy"), ("solver", "aux_splits", ["x", 1]),
        ("solver", "eliminate_nonneg", "d"), ("solver", "eliminate_nonneg", [True])])
    def test_bad_value_rejected(self, section, key, value):
        raw = braking_config_dict()
        raw[section][key] = value
        with pytest.raises(ConfigError, match=f"{section} key '{key}' must be"):
            RunConfig.from_dict(raw)

    def test_nan_eta_in_json_rejected(self, tmp_path):
        path = tmp_path / "nan_eta.json"
        path.write_text(json.dumps(braking_config_dict()).replace('"eta": 0.1', '"eta": NaN'))
        with pytest.raises(ConfigError, match="index key 'eta' must be a finite number > 0"):
            RunConfig.load(str(path))


class TestModelDt:
    """The control period has one home, the model: ``dt`` must be a finite
    number > 0 for the builtin and for a model given in full."""

    @pytest.mark.parametrize("dt", [0, -0.01, math.inf, math.nan, "0.01", True],
                             ids=["0", "-0.01", "inf", "nan", "str", "bool"])
    def test_bad_dt_rejected(self, dt):
        for raw in (default_unicycle_config(), braking_config_dict()):
            raw["model"]["dt"] = dt
            with pytest.raises(ConfigError, match="model key 'dt' must be a finite number > 0"):
                build_problem(RunConfig.from_dict(raw))

    def test_dt_reaches_the_system(self):
        raw = braking_config_dict()
        raw["model"]["dt"] = 0.02
        assert build_problem(RunConfig.from_dict(raw)).system.dt == 0.02


class TestFalsifierSection:
    @pytest.mark.parametrize("edit, message", [
        ({"seed": -1}, "falsifier seed must be >= 0"),
        ({"slack": math.nan}, "falsifier slack must be >= 0"),
        ({"axes": [{"var": "d", "range": [0.0, 1.0], "resolution": 1}]},
         "axis resolution must be >= 2"),
        ({"axes": [{"var": "d"}]}, "'range'"),
        ({"axes": [{"var": "d", "range": [0.0, math.nan]}]}, "axis range must be finite"),
        # checked, not cast: int() and float() once turned most of these into numbers
        pytest.param({"samples": "many"}, "falsifier samples must be an integer, got 'many'",
                     id="samples-string"),
        pytest.param({"samples": "100"}, "falsifier samples must be an integer, got '100'",
                     id="samples-numeric-string"),
        pytest.param({"samples": True}, "falsifier samples must be an integer, got True",
                     id="samples-bool"),
        pytest.param({"samples": 2.5}, "falsifier samples must be an integer, got 2.5",
                     id="samples-float"),
        pytest.param({"seed": 2.7}, "falsifier seed must be an integer, got 2.7",
                     id="seed-float"),
        pytest.param({"seed": True}, "falsifier seed must be an integer, got True",
                     id="seed-bool"),
        pytest.param({"slack": "1e-6"}, "falsifier slack must be a number, got '1e-6'",
                     id="slack-string"),
        pytest.param({"axes": [{"var": "d", "range": [0.0, 1.0], "resolution": 2.7}]},
                     "axis resolution must be an integer, got 2.7", id="resolution-float"),
        pytest.param({"axes": [{"var": "d", "range": [0.0, 1.0], "resolution": True}]},
                     "axis resolution must be an integer, got True", id="resolution-bool"),
        pytest.param({"axes": [{"var": "d", "range": [0.0, 1.0], "resolution": "50"}]},
                     "axis resolution must be an integer, got '50'", id="resolution-string"),
        pytest.param({"axes": [{"var": "d", "range": [0.0]}]},
                     r"axis range must be a pair \[lo, hi\] of numbers, got \[0.0\]",
                     id="range-one-value"),
        pytest.param({"axes": [{"var": "d", "range": [0.0, 1.0, 2.0]}]},
                     "axis range must be a pair", id="range-three-values"),
        pytest.param({"axes": [{"var": "d", "range": "01"}]},
                     "axis range must be a pair", id="range-string"),
        pytest.param({"axes": [{"var": "d", "range": [0.0, "1"]}]},
                     "axis range must be a pair", id="range-string-bound"),
        pytest.param({"axes": [{"var": "d", "range": [False, 1.0]}]},
                     "axis range must be a pair", id="range-bool-bound")])
    def test_bad_section_is_config_error(self, edit, message):
        raw = braking_config_dict()
        raw["falsifier"].update(edit)
        with pytest.raises(ConfigError, match=f"bad falsifier section: .*{message}"):
            RunConfig.from_dict(raw).falsifier_config()

    def test_integers_kept_as_given(self):
        raw = braking_config_dict()
        raw["falsifier"].update(samples=0, seed=5, slack=0)
        raw["falsifier"]["axes"][0]["resolution"] = 2
        cfg = RunConfig.from_dict(raw).falsifier_config()
        assert (cfg.samples, cfg.seed, cfg.slack, cfg.axes[0].resolution) == (0, 5, 0.0, 2)
        assert cfg.axes[1].resolution == 50

    def test_zero_samples_allowed(self):
        raw = braking_config_dict()
        raw["falsifier"]["samples"] = 0
        assert RunConfig.from_dict(raw).falsifier_config().samples == 0
